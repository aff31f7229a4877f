package verify

import (
	"dmp/internal/cfg"
	"dmp/internal/isa"
	"dmp/internal/memo"
)

// HasCleanVerdict reports whether a run on p would skip the code passes.
func HasCleanVerdict(p *isa.Program) bool { return codeClean(p) }

// VerdictCount returns the number of clean verdicts held.
func VerdictCount() int { return verdicts.Len() }

// VerdictCap returns the verdict memo's cap.
func VerdictCap() int { return verdicts.Cap }

// ResetVerdicts drops every verdict. No verification may be running.
func ResetVerdicts() { verdicts = memo.Bounded[cfg.Key, *codeVerdict]{Cap: verdicts.Cap} }
