// Package sched provides the scheduling aspects of the framework:
// admission controllers that decide *when* invocations proceed. FairShare
// caps each client's outstanding invocations; the order in which parked
// callers are admitted is the moderator's wake policy (waitq.FIFO, LIFO or
// Priority, chosen with moderator.WithWakePolicy). Scheduling is one of the
// interaction properties the paper names alongside synchronization
// (Section 1).
//
// Like all guard aspects, FairShare runs under the moderator's admission
// lock and needs no internal locking.
package sched

import (
	"errors"
	"fmt"

	"repro/internal/aspect"
)

// FairShare caps the number of outstanding invocations per client so that
// no client monopolizes a component. The client identity is derived from
// the invocation by the classifier function (for example the authenticated
// principal's name).
type FairShare struct {
	perClient   int
	classify    func(inv *aspect.Invocation) string
	outstanding map[string]int
	methods     []string
}

// clientKey carries the classified identity from precondition to
// postaction, so completion is attributed even if classification would
// change.
type clientKey struct{}

// NewFairShare creates a fair-share guard admitting at most perClient
// concurrent invocations for any one client.
func NewFairShare(perClient int, classify func(inv *aspect.Invocation) string, methods ...string) (*FairShare, error) {
	if perClient <= 0 {
		return nil, fmt.Errorf("sched: per-client limit %d must be positive", perClient)
	}
	if classify == nil {
		return nil, errors.New("sched: nil classifier")
	}
	return &FairShare{
		perClient:   perClient,
		classify:    classify,
		outstanding: make(map[string]int, 16),
		methods:     methods,
	}, nil
}

// Aspect returns the guard enforcing the fair share.
func (fs *FairShare) Aspect(name string) aspect.Aspect {
	release := func(inv *aspect.Invocation) {
		client, _ := inv.Attr(clientKey{}).(string)
		inv.DeleteAttr(clientKey{})
		if n := fs.outstanding[client]; n <= 1 {
			delete(fs.outstanding, client)
		} else {
			fs.outstanding[client] = n - 1
		}
	}
	return &aspect.Func{
		AspectName: name,
		AspectKind: aspect.KindScheduling,
		Pre: func(inv *aspect.Invocation) aspect.Verdict {
			client := fs.classify(inv)
			if fs.outstanding[client] >= fs.perClient {
				return aspect.Block
			}
			fs.outstanding[client]++
			inv.SetAttr(clientKey{}, client)
			return aspect.Resume
		},
		Post:     release,
		CancelFn: release,
		WakeList: fs.methods,
	}
}

// Outstanding returns a client's in-flight count (diagnostics; call only
// under the admission lock).
func (fs *FairShare) Outstanding(client string) int { return fs.outstanding[client] }
