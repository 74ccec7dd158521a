package amrpc

import (
	"context"
	"testing"

	"repro/internal/apps/ticket"
)

// callPairAllocs is what one remote open+assign pair of the guarded ticket
// service may cost the heap, client and server together.
const callPairAllocs = 13

// TestCallAllocations pins the allocations of one open+assign pair over
// loopback. What is left is what outlives the call: the two invocations,
// the decoded arguments and result, the ticket the body returns. Nothing
// per frame — no line or result copy, no name, no reply channel — may come
// back.
func TestCallAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	g, err := ticket.NewGuarded(ticket.GuardedConfig{Capacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	stub := dialClient(t, startServer(t, g.Proxy())).Component(ticket.ComponentName)
	ctx := context.Background()
	open := []any{"TT-1042", "printer on fire"}
	pair := func() {
		if _, err := stub.Invoke(ctx, ticket.MethodOpen, open...); err != nil {
			t.Fatal(err)
		}
		res, err := stub.Invoke(ctx, ticket.MethodAssign)
		if m, ok := res.(map[string]any); err != nil || !ok || m["id"] != "TT-1042" || m["summary"] != "printer on fire" {
			t.Fatalf("assign = %#v, %v", res, err)
		}
	}
	for i := 0; i < 100; i++ { // warm the pools, the caches and the buffers
		pair()
	}
	n := testing.AllocsPerRun(1000, pair)
	t.Logf("%.0f allocs per open+assign pair", n)
	if n > callPairAllocs {
		t.Errorf("open+assign pair: %.0f allocs, want <= %d", n, callPairAllocs)
	}
}
