package sample

// ClearCountMemo empties the process-wide instruction-count memo, so the next
// Run of any program discovers its count en route.
var ClearCountMemo = clearTotalMemo
