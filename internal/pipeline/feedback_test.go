package pipeline

import (
	"testing"

	"dmp/internal/isa"
)

// TestFeedbackThrottlesUselessPredication: a predictable hammock annotated
// Short is always predicated; with feedback enabled, the useless sessions
// must be throttled away, recovering most of the baseline performance.
func TestFeedbackThrottlesUselessPredication(t *testing.T) {
	p, br, merge := hammockProg(t, 3)
	q := p.WithAnnots(map[int]*isa.DivergeInfo{
		br: {CFMs: []isa.CFM{{Kind: isa.CFMAddr, Addr: merge, MergeProb: 1}}, Short: true},
	})
	input := constBits(1, 5000) // fully predictable: predication is pure waste

	cfg := DefaultConfig()
	cfg.DMP = true
	noFB, err := Run(q, input, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.DpredFeedback = true
	withFB, err := Run(q, input, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if withFB.DpredThrottled == 0 {
		t.Fatal("feedback never throttled a useless branch")
	}
	if withFB.DpredEntries >= noFB.DpredEntries {
		t.Errorf("entries with feedback %d >= without %d", withFB.DpredEntries, noFB.DpredEntries)
	}
	if withFB.IPC() <= noFB.IPC() {
		t.Errorf("feedback IPC %v <= no-feedback IPC %v on wasteful predication", withFB.IPC(), noFB.IPC())
	}
}

// TestFeedbackKeepsUsefulPredication: on a genuinely hard-to-predict
// hammock, feedback must not destroy the DMP benefit.
func TestFeedbackKeepsUsefulPredication(t *testing.T) {
	p, br, merge := hammockProg(t, 3)
	q := annotate(p, br, merge)
	input := randBits(21, 5000)

	base := runSim(t, p, input, false)
	cfg := DefaultConfig()
	cfg.DMP = true
	cfg.DpredFeedback = true
	withFB, err := Run(q, input, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if withFB.IPC() <= base.IPC() {
		t.Errorf("feedback destroyed useful predication: %v <= %v", withFB.IPC(), base.IPC())
	}
	if withFB.DpredSavedFlushes == 0 {
		t.Error("no saved flushes with feedback enabled")
	}
}

func TestFeedbackCounterDecay(t *testing.T) {
	s := &Sim{core: core{cfg: Config{DpredFeedback: true}}}
	for i := 0; i < fbDecayAt; i++ {
		s.fbRecord(10, false)
	}
	e := s.fb[10]
	if e.sessions != fbDecayAt/2 {
		t.Errorf("sessions after decay = %d, want %d", e.sessions, fbDecayAt/2)
	}
	if !s.fbThrottled(10) {
		t.Error("all-useless branch not throttled")
	}
	// A branch with enough useful sessions is not throttled.
	for i := 0; i < fbMinSessions; i++ {
		s.fbRecord(20, i%2 == 0)
	}
	if s.fbThrottled(20) {
		t.Error("50%-useful branch throttled")
	}
	// Below the observation window nothing is throttled.
	s.fbRecord(30, false)
	if s.fbThrottled(30) {
		t.Error("throttled before the observation window filled")
	}
	// Disabled feedback never throttles or records.
	s2 := &Sim{core: core{cfg: Config{}}}
	s2.fbRecord(1, false)
	if s2.fb != nil || s2.fbThrottled(1) {
		t.Error("disabled feedback recorded or throttled")
	}
}
