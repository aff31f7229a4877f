package core

import "dmp/internal/memo"

// ForgetHammocks empties the memo of hammock analyses, so that the next
// selections analyse every branch afresh.
func ForgetHammocks() { hammockMemo = memo.Bounded[hammockKey, *hammocks]{Cap: hammockMemo.Cap} }
