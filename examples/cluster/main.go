// Cluster: the distributed admission plane in one process tree — a naming
// service and three moderator replicas that partition the admission
// domains of a guarded component between them. Calls enter through ANY
// node and are transparently forwarded to each domain's owner under a
// fenced lease term; when a replica leaves, the ring reassigns its
// domains to the survivors at a higher term and routing follows without
// the callers noticing.
//
// Run with:
//
//	go run ./examples/cluster
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"repro/internal/aspect"
	"repro/internal/cluster"
	"repro/internal/moderator"
	"repro/internal/naming"
	"repro/internal/proxy"
)

// board is the shared functional core: every replica hosts the same
// guarded component, but only a domain's owner admits its methods.
type board struct {
	mu      sync.Mutex
	posts   []string
	tallies int
}

// boardState is the snapshot payload the state-sync plane ships on a
// graceful handoff: the board's full domain state, JSON-encoded.
type boardState struct {
	Posts   []string `json:"posts"`
	Tallies int      `json:"tallies"`
}

func (b *board) snapshot(domain string) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	var st boardState
	if domain == "post" {
		st.Posts = append([]string(nil), b.posts...)
	} else {
		st.Tallies = b.tallies
	}
	return json.Marshal(st)
}

func (b *board) restore(domain string, data []byte) error {
	var st boardState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if domain == "post" {
		b.posts = st.Posts
	} else {
		b.tallies = st.Tallies
	}
	return nil
}

func newBoardProxy(b *board) *proxy.Proxy {
	mod := moderator.New("board")
	p := proxy.New(mod)
	for _, m := range []string{"post", "tally"} {
		method := m
		if err := mod.Register(method, aspect.KindSynchronization,
			aspect.New("gate-"+method, aspect.KindSynchronization,
				func(inv *aspect.Invocation) aspect.Verdict { return aspect.Resume },
				func(inv *aspect.Invocation) {})); err != nil {
			log.Fatal(err)
		}
	}
	if err := p.Bind("post", func(inv *aspect.Invocation) (any, error) {
		msg, err := inv.ArgString(0)
		if err != nil {
			return nil, err
		}
		b.mu.Lock()
		defer b.mu.Unlock()
		b.posts = append(b.posts, msg)
		return len(b.posts), nil
	}); err != nil {
		log.Fatal(err)
	}
	if err := p.Bind("tally", func(inv *aspect.Invocation) (any, error) {
		b.mu.Lock()
		defer b.mu.Unlock()
		b.tallies++
		return b.tallies, nil
	}); err != nil {
		log.Fatal(err)
	}
	return p
}

func main() {
	// 1. Naming service: membership, domain leases, fencing terms.
	nsrv := naming.NewServer(nil)
	nln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go func() { _ = nsrv.Serve(nln) }()
	defer nsrv.Close()
	fmt.Printf("naming service on %s\n", nln.Addr())

	// 2. Three replicas of the same guarded component. The moderator
	// guards each method on its own, so each is its own admission domain
	// ("post", "tally") and the ring splits ownership across nodes.
	mkNode := func(id string) (*board, *cluster.Node) {
		b := &board{}
		n, err := cluster.Start(cluster.Config{
			ID:         id,
			Local:      newBoardProxy(b),
			Naming:     nln.Addr().String(),
			Idempotent: true,
			LeaseTTL:   time.Second,
			MemberTTL:  time.Second,
			Heartbeat:  200 * time.Millisecond,
			Snapshot:   b.snapshot,
			Restore:    b.restore,
		}, "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		return b, n
	}
	boards := map[string]*board{}
	var nodes []*cluster.Node
	for _, id := range []string{"node-a", "node-b", "node-c"} {
		b, n := mkNode(id)
		boards[id] = b
		nodes = append(nodes, n)
	}

	// Wait for the plane to converge: full membership everywhere and each
	// domain held by the node the ring designates (the first beats may
	// briefly assign everything to whichever node registered first).
	waitOwners := func() map[string]cluster.DomainStatus {
		ids := make([]string, 0, len(nodes))
		for _, n := range nodes {
			ids = append(ids, n.ID())
		}
		ring := naming.NewRing(0, ids...)
		for deadline := time.Now().Add(5 * time.Second); ; {
			owners := map[string]cluster.DomainStatus{}
			st := nodes[0].Status()
			for _, d := range st.Domains {
				if want, _ := ring.Owner(d.Domain); d.Owner == want {
					owners[d.Domain] = d
				}
			}
			if len(owners) == len(st.Domains) && len(st.Members) == len(nodes) {
				return owners
			}
			if time.Now().After(deadline) {
				log.Fatal("cluster never converged")
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	owners := waitOwners()
	fmt.Println("\nownership after convergence:")
	for d, st := range owners {
		fmt.Printf("  domain %-8s -> %s (term %d)\n", d, st.Owner, st.Term)
	}

	// 3. Drive both methods through node-a only: calls for domains it does
	// not own are forwarded to the owner under its fenced term.
	ctx := context.Background()
	for k := 0; k < 6; k++ {
		if _, err := nodes[0].Invoke(ctx, "post", fmt.Sprintf("msg-%d", k)); err != nil {
			log.Fatal(err)
		}
		if _, err := nodes[0].Invoke(ctx, "tally"); err != nil {
			log.Fatal(err)
		}
	}
	st := nodes[0].Status()
	fmt.Printf("\nnode-a after 12 calls: local=%d forwarded=%d\n", st.LocalCalls, st.Forwards)
	for id, b := range boards {
		b.mu.Lock()
		fmt.Printf("  %s backend: %d posts, %d tallies\n", id, len(b.posts), b.tallies)
		b.mu.Unlock()
	}

	// 4. Graceful handoff: retire the owner of "post". Before the lease
	// moves, the leaving node flushes a state snapshot to its ring
	// successor and releases with a barrier — the new owner resumes the
	// board's state, not just the domain's admission.
	victimID := owners["post"].Owner
	oldTerm := owners["post"].Term
	var survivors []*cluster.Node
	for _, n := range nodes {
		if n.ID() == victimID {
			fmt.Printf("\nretiring %s (owner of \"post\" at term %d)...\n", victimID, oldTerm)
			n.Close()
		} else {
			survivors = append(survivors, n)
		}
	}
	nodes = survivors

	for k := 6; k < 12; k++ {
		cctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		_, err := nodes[0].Invoke(cctx, "post", fmt.Sprintf("msg-%d", k))
		cancel()
		if err != nil {
			log.Fatal(err)
		}
	}
	ownerOf := func(domain string) (*cluster.Node, cluster.DomainStatus) {
		for _, d := range nodes[0].Status().Domains {
			if d.Domain != domain {
				continue
			}
			for _, n := range nodes {
				if n.ID() == d.Owner {
					return n, d
				}
			}
		}
		log.Fatalf("no live owner for %q", domain)
		return nil, cluster.DomainStatus{}
	}
	newOwner, d := ownerOf("post")
	fmt.Printf("\"post\" now owned by %s at term %d (was %s at term %d)\n",
		d.Owner, d.Term, victimID, oldTerm)
	for _, s := range newOwner.SyncStatus() {
		if s.Domain == "post" && s.Restored {
			fmt.Printf("state resumed via snapshot on %s: %d posts survived the graceful handoff\n",
				d.Owner, postCount(boards[d.Owner]))
		}
	}

	// 5. Hard kill mid-run: no goodbye, no snapshot flush. The streamed
	// effect log on the ring successor is the only carrier; after the
	// lease expires, the next owner replays the suffix through its own
	// guarded component and serving resumes with the state intact.
	time.Sleep(300 * time.Millisecond) // let replication acks drain
	crashID := d.Owner
	fmt.Printf("\nhard-killing %s mid-run (owner of \"post\" at term %d)...\n", crashID, d.Term)
	newOwner.Fail()
	var remaining []*cluster.Node
	for _, n := range nodes {
		if n.ID() != crashID {
			remaining = append(remaining, n)
		}
	}
	nodes = remaining

	for k := 12; k < 18; k++ {
		cctx, cancel := context.WithTimeout(ctx, 15*time.Second)
		_, err := nodes[0].Invoke(cctx, "post", fmt.Sprintf("msg-%d", k))
		cancel()
		if err != nil {
			log.Fatal(err)
		}
	}
	finalOwner, fd := ownerOf("post")
	fb := boards[fd.Owner]
	fb.mu.Lock()
	surviving := append([]string(nil), fb.posts...)
	fb.mu.Unlock()
	fmt.Printf("\"post\" now owned by %s at term %d — surviving state after the crash:\n", fd.Owner, fd.Term)
	fmt.Printf("  %d posts on the new owner (first %q, last %q)\n",
		len(surviving), surviving[0], surviving[len(surviving)-1])
	for _, s := range finalOwner.SyncStatus() {
		if s.Domain != "post" {
			continue
		}
		switch {
		case s.CatchupApplied > 0:
			fmt.Printf("  %d of them replayed from the replicated effect log\n", s.CatchupApplied)
		case s.Restored:
			fmt.Println("  recovered from the successor's replicated snapshot baseline")
		}
	}

	for _, n := range nodes {
		n.Close()
	}
	fmt.Println("shut down cleanly")
}

func postCount(b *board) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.posts)
}
