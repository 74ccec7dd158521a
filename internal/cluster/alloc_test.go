package cluster

import (
	"context"
	"testing"
)

// forwardAllocs is what one call entering the plane at a node that does not
// own its domain may cost the heap, both nodes together.
const forwardAllocs = 8

// TestForwardAllocations pins the forward path: the entry node routes the
// call to the owner over its pooled connection, the owner admits and runs
// it. What is left outlives the call — the two invocations, the owner's
// decoded argument and fence attribute, the caller's boxed argument. A
// Stub and its option closures built per forwarded call come back as four
// allocations, an in-flight counter allocated per local call as two.
func TestForwardAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	namingAddr := startNaming(t)
	noSync := func(cfg *Config) { cfg.DisableStateSync = true }
	_, n1 := startLedgerNode(t, "n1", namingAddr, noSync)
	_, n2 := startLedgerNode(t, "n2", namingAddr, noSync)
	entry := n1
	if waitOwnership(t, n1, n2)["alpha"] == n1 {
		entry = n2
	}
	ctx := context.Background()
	call := func() {
		if _, err := entry.Invoke(ctx, "alpha-put", "a-forwarded"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		call()
	}
	n := testing.AllocsPerRun(2000, call)
	t.Logf("%.0f allocs per forwarded call", n)
	if n > forwardAllocs {
		t.Errorf("forwarded call: %.0f allocs, want <= %d", n, forwardAllocs)
	}
}
