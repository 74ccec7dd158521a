package cluster

import (
	"context"
	"runtime"
	"testing"
	"time"
)

// forwardAllocs is what one call entering the plane at a node that does not
// own its domain may cost the heap, both nodes together.
const forwardAllocs = 2

// TestForwardAllocations pins the forward path: the entry node routes the
// call to the owner over its pooled connection, the owner admits and runs
// it. What is left outlives the call — the copy of the argument's bytes
// the owner's body reads its string from, the caller's boxed argument;
// decoding the argument into a list at the owner comes back as two more.
// Both nodes release their invocation record once
// the call returns; a record built per call comes back as two. A Stub and
// its option closures built per forwarded call come back as four
// allocations, an in-flight counter allocated per local call as two, the
// fence carried in an attribute map instead of the raw call as two.
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

// relayedForwardAllocs is what one call an external client makes through a
// node that does not own its domain may cost the heap: client, entry node
// and owner together.
const relayedForwardAllocs = 2

// TestRelayedForwardAllocations pins the relay: an external amrpc client
// calls the entry node, which passes the call's argument bytes to the owner
// and the owner's result bytes back without decoding either. What is left
// is the copy of the argument's bytes the owner's body reads its string
// from, and the plane's background traffic spread over the calls; decoding
// the argument into a list at the owner comes back as two more. Both
// servers release their invocation record once the call returns, and a
// record built per call comes back as two. Decoding the argument at the
// entry as well comes back as three more; a string result decoded there
// would add two.
func TestRelayedForwardAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	r := startRelayRig(t, nil)
	ctx := context.Background()
	call := func() {
		if _, err := r.stub.Invoke(ctx, "alpha-put", "a-relayed"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		call()
	}
	const calls = 20_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		call()
	}
	runtime.ReadMemStats(&after)
	per := float64(after.Mallocs-before.Mallocs) / calls
	t.Logf("%.2f allocs per relayed call", per)
	if per > relayedForwardAllocs {
		t.Errorf("relayed call: %.2f allocs, want <= %d", per, relayedForwardAllocs)
	}
}

// replicatedForwardAllocs is forwardAllocs with state sync on: the owner
// streams each effect to its successor, which may add at most one heap
// allocation per call to the forward path's.
const replicatedForwardAllocs = 3

// TestReplicatedForwardAllocations is TestForwardAllocations with state
// sync on. The owner captures each call's effect in the bytes its frame
// carried the arguments in, and streams it to its ring successor — here
// the entry node — in batched offers: copied from the log straight into
// the frame, parsed by the successor straight into its packed replica,
// neither side allocating per entry. Capturing a decoded list instead,
// re-encoded into the log, comes back as two more. The count covers the
// streamer's work: it is read only once the successor holds every effect
// the owner captured.
func TestReplicatedForwardAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	namingAddr := startNaming(t)
	_, n1 := startLedgerNode(t, "n1", namingAddr, nil)
	_, n2 := startLedgerNode(t, "n2", namingAddr, nil)
	owner, entry := n1, n2
	if waitOwnership(t, n1, n2)["alpha"] == n2 {
		owner, entry = n2, n1
	}
	ctx := context.Background()
	call := func() {
		if _, err := entry.Invoke(ctx, "alpha-put", "a-forwarded"); err != nil {
			t.Fatal(err)
		}
	}
	// drained waits for the successor to hold the owner's whole log. It
	// polls slowly: each status read allocates.
	drained := func() {
		deadline := time.Now().Add(5 * time.Second)
		for {
			last := owner.sync.Seq("alpha")
			for _, st := range entry.SyncStatus() {
				if st.Domain == "alpha" && st.ReplicaSeq == last {
					return
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("successor never caught up with the owner's seq %d", last)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	for i := 0; i < 500; i++ {
		call()
	}
	drained()

	const calls = 20_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		call()
	}
	drained()
	runtime.ReadMemStats(&after)
	per := float64(after.Mallocs-before.Mallocs) / calls
	t.Logf("%.2f allocs per replicated forwarded call", per)
	if per > replicatedForwardAllocs {
		t.Errorf("replicated forwarded call: %.2f allocs, want <= %d", per, replicatedForwardAllocs)
	}
}
