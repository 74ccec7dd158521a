//go:build !race

package waitq

// raceEnabled reports whether the race detector is compiled in. The
// allocation test skips under -race: the detector allocates shadow state,
// so AllocsPerRun numbers are meaningless there.
const raceEnabled = false
