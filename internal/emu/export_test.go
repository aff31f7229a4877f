package emu

// Step executes one instruction through a one-entry StepBatch and returns
// its trace entry, so tests can run the block executor in lockstep with
// StepRef.
func (m *Machine) Step() (Trace, error) {
	var buf [1]Trace
	if n, err := m.StepBatch(buf[:]); n == 0 {
		return Trace{}, err
	}
	return buf[0], nil
}
