package sample

import "dmp/internal/memo"

// ForgetCounts empties the process-wide instruction-count memo, so the next
// Run of any program starts with a counting pass.
func ForgetCounts() { totalMemo = memo.Bounded[totalKey, uint64]{Cap: totalMemo.Cap} }
