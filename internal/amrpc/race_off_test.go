//go:build !race

package amrpc

// raceEnabled reports whether the race detector is compiled in. The
// allocation guards skip under -race: the detector allocates shadow state
// and makes sync.Pool drop a share of what is put back, so AllocsPerRun
// numbers mean nothing there.
const raceEnabled = false
