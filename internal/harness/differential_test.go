package harness

// Differential test: the cycle-level pipeline must be architecturally
// transparent. For every benchmark and both input sets, the baseline pipeline
// and the dynamically predicated (All-best-heur) pipeline must retire exactly
// the instructions the reference emulator retires and produce an identical
// output stream — dynamic predication changes timing, never results.
//
// On a mismatch the failure message pinpoints the first retired instruction
// whose architectural output diverges from the reference.

import (
	"fmt"
	"testing"

	"dmp/internal/bench"
	"dmp/internal/core"
	"dmp/internal/emu"
	"dmp/internal/isa"
	"dmp/internal/pipeline"
	"dmp/internal/profile"
)

// diffEmuBudget bounds the reference interpreter; the largest corpus program
// retires ~1.5M instructions at scale 1, so hitting this means a real hang.
const diffEmuBudget = 500_000_000

func diffConfig(dmp bool) pipeline.Config {
	cfg := pipeline.DefaultConfig()
	cfg.DMP = dmp
	return cfg
}

// firstDivergence replays the reference emulator and describes the first
// retired instruction whose out value disagrees with the pipeline's output
// stream.
func firstDivergence(prog *isa.Program, input []int64, gotOut []int64) string {
	m := emu.New(prog, input, 0)
	outIdx := 0
	for !m.Halted() {
		tr, err := m.StepRef()
		if err != nil {
			return fmt.Sprintf("reference replay failed after %d insts: %v", m.Retired, err)
		}
		in := prog.Code[tr.PC]
		if in.Op != isa.OpOut {
			continue
		}
		if outIdx < len(gotOut) && gotOut[outIdx] == m.Output[outIdx] {
			outIdx++
			continue
		}
		got := "<missing>"
		if outIdx < len(gotOut) {
			got = fmt.Sprint(gotOut[outIdx])
		}
		return fmt.Sprintf("first divergence at retired inst #%d, pc %d (%s): output[%d] = %s, reference %d",
			m.Retired, tr.PC, in, outIdx, got, m.Output[outIdx])
	}
	if outIdx < len(gotOut) {
		return fmt.Sprintf("pipeline emitted %d extra output value(s) starting with output[%d] = %d",
			len(gotOut)-outIdx, outIdx, gotOut[outIdx])
	}
	return "outputs agree on replay (mismatch not reproducible)"
}

func checkAgainstReference(t *testing.T, label string, prog *isa.Program, input []int64, ref *emu.Machine) {
	t.Helper()
	sim := pipeline.New(prog, input, diffConfig(len(prog.Annots) > 0))
	st, err := sim.Run()
	if err != nil {
		t.Errorf("%s: pipeline: %v", label, err)
		return
	}
	if st.Retired != ref.Retired {
		t.Errorf("%s: retired %d instructions, reference retired %d", label, st.Retired, ref.Retired)
	}
	gotOut := sim.Machine().Output
	same := len(gotOut) == len(ref.Output)
	if same {
		for i := range gotOut {
			if gotOut[i] != ref.Output[i] {
				same = false
				break
			}
		}
	}
	if !same {
		t.Errorf("%s: output stream differs (%d values, reference %d); %s",
			label, len(gotOut), len(ref.Output), firstDivergence(prog.WithAnnots(nil), input, gotOut))
	}
	checkGolden(t, label, st)
}

// TestPipelineMatchesEmulator runs the full 17-benchmark corpus on both input
// sets. In -short mode (and under the race detector, where simulation is an
// order of magnitude slower) it keeps the same checks on the representative
// four-benchmark subset used by the rest of the harness tests.
func TestPipelineMatchesEmulator(t *testing.T) {
	defer flushGoldens(t)
	benches := bench.All()
	if testing.Short() || raceEnabled {
		benches = nil
		for _, name := range testOpts.Benchmarks {
			benches = append(benches, bench.ByName(name))
		}
	}
	heur := HeuristicConfigs()[4].Params
	for _, b := range benches {
		prog, err := b.Compile()
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		for _, set := range []bench.InputSet{bench.RunInput, bench.TrainInput} {
			input := b.Input(set, 1)
			ref := emu.New(prog, input, 0)
			if _, err := ref.Run(diffEmuBudget); err != nil {
				t.Fatalf("%s/%s: reference emulator: %v", b.Name, set, err)
			}

			checkAgainstReference(t, fmt.Sprintf("%s/%s/baseline", b.Name, set),
				prog.WithAnnots(nil), input, ref)

			prof, err := profile.Collect(prog, input, profile.Options{})
			if err != nil {
				t.Fatalf("%s/%s: profile: %v", b.Name, set, err)
			}
			res, err := core.Select(prog, prof, heur)
			if err != nil {
				t.Fatalf("%s/%s: select: %v", b.Name, set, err)
			}
			if len(res.Annots) > 0 {
				checkAgainstReference(t, fmt.Sprintf("%s/%s/dmp", b.Name, set),
					prog.WithAnnots(res.Annots), input, ref)
			}
		}
	}
}
