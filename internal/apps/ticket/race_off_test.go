//go:build !race

package ticket_test

// raceEnabled reports whether the race detector is compiled in. Allocation
// pins skip under it: the detector's instrumentation allocates, and its
// sync.Pool drops a share of the records handed back on purpose.
const raceEnabled = false
