package aspect

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
)

// invocationSeq numbers invocations on demand: ID draws from it on first
// read, so only a traced or audited call touches this shared counter.
var invocationSeq atomic.Uint64

// invocationPool recycles records that their creator handed back with
// Release.
var invocationPool = sync.Pool{New: func() any { return new(Invocation) }}

// Invocation is the join-point record of one guarded method call. It is
// created by a component proxy, threaded through the pre-activation phase,
// the method body, and the post-activation phase, and carries the call's
// arguments, attributes, principal-style metadata, and outcome.
//
// An Invocation is owned by the calling goroutine; it is not safe for
// concurrent use. Aspects touch it only from moderator hooks, which the
// moderator serializes under the component's admission lock.
//
// Lifetime: an Invocation is valid only until the call that carries it
// returns, on every route — the lock-free, optimistic and mutex admission
// tiers, a parked and woken caller, a call served over amrpc or routed
// through a cluster node. Whoever created the record may then Release it
// for reuse by a later call. Aspect hooks, method bodies, effect sinks and
// tracers therefore keep values read from it (the ID, the method name, an
// attribute, the args slice, which no one mutates), never the pointer.
type Invocation struct {
	ctx       context.Context
	component string
	method    string
	args      []any

	// Priority orders blocked callers when the moderator's wait queues
	// use a priority wake policy. Higher values wake first.
	Priority int

	attrs  map[any]any
	result any
	err    error
	id     uint64 // 0 until ID is first read
}

// NewInvocation builds an invocation record for one call of method on the
// named component. A nil ctx defaults to context.Background(). The record
// may be a recycled one; it carries nothing of its previous call.
func NewInvocation(ctx context.Context, component, method string, args []any) *Invocation {
	if ctx == nil {
		ctx = context.Background()
	}
	inv := invocationPool.Get().(*Invocation)
	inv.ctx = ctx
	inv.component = component
	inv.method = method
	inv.args = args
	return inv
}

// Release clears the record and returns it for reuse by a later
// NewInvocation. Only the record's creator calls it, once the call that
// carried the record has returned; the record must not be touched after.
// The attribute map is emptied in place and kept. A record that is never
// released is simply garbage.
func (inv *Invocation) Release() {
	clear(inv.attrs)
	*inv = Invocation{attrs: inv.attrs}
	invocationPool.Put(inv)
}

// Context returns the caller's context. Moderators honor its cancellation
// while the invocation is blocked on a wait queue.
func (inv *Invocation) Context() context.Context { return inv.ctx }

// ID returns a process-unique, non-zero sequence number for the
// invocation. The number is drawn on first read; successive records that
// one goroutine reads in turn get increasing numbers.
func (inv *Invocation) ID() uint64 {
	if inv.id == 0 {
		inv.id = invocationSeq.Add(1)
	}
	return inv.id
}

// Component returns the name of the functional component being invoked.
func (inv *Invocation) Component() string { return inv.component }

// Method returns the participating method name.
func (inv *Invocation) Method() string { return inv.method }

// Args returns the argument list. The slice is shared, not copied. The
// arguments of a call a transport set with SetArgReader are decoded into a
// list here once, at the first call, and the list replaces the reader.
func (inv *Invocation) Args() []any {
	if r := inv.Wire(); r != nil {
		args := make([]any, r.Arity())
		for i := range args {
			args[i] = r.Decode(i)
		}
		inv.args = args
	}
	return inv.args
}

// An ArgReader holds the arguments of a call a transport received in wire
// form, where the frame carried them, and decodes one only when the
// invocation it is set on reads it. A transport makes one per call in
// flight by embedding WireArgs, sets it with SetArgReader, and keeps it
// valid until the call returns.
type ArgReader interface {
	// Arity returns the number of arguments.
	Arity() int
	// Decode returns argument i decoded, nil when i is out of range.
	Decode(i int) any
	// DecodeString returns argument i when it is a string.
	DecodeString(i int) (string, bool)
	// Raw returns argument i, 0 <= i < Arity, exactly as the frame carried
	// it: one JSON value the transport accepted. The bytes are the
	// transport's and valid only until the call returns; whoever keeps
	// them copies them.
	Raw(i int) []byte
	wireArgs() *WireArgs
}

// WireArgs, embedded, makes a transport's type an ArgReader: it holds the
// one-element list an invocation's arguments point at while the reader is
// set, so setting one allocates nothing. Only a type that embeds it is an
// ArgReader, so an in-process caller's argument is never taken for one.
type WireArgs struct{ list [1]any }

func (w *WireArgs) wireArgs() *WireArgs { return w }

// SetArgReader makes r the invocation's arguments: every accessor reads
// them through r until Args decodes them into a list.
func (inv *Invocation) SetArgReader(r ArgReader) {
	r.wireArgs().list[0] = r
	inv.args = r.wireArgs().list[:]
}

// Wire returns the ArgReader set as the arguments while they are still in
// wire form: nil for an in-process call's list, and nil once Args has
// decoded them into one.
func (inv *Invocation) Wire() ArgReader {
	if len(inv.args) != 1 {
		return nil
	}
	r, _ := inv.args[0].(ArgReader)
	return r
}

// NumArgs returns the number of arguments.
func (inv *Invocation) NumArgs() int {
	if r := inv.Wire(); r != nil {
		return r.Arity()
	}
	return len(inv.args)
}

// Arg returns argument i, or nil if out of range.
func (inv *Invocation) Arg(i int) any {
	if r := inv.Wire(); r != nil {
		return r.Decode(i)
	}
	if i < 0 || i >= len(inv.args) {
		return nil
	}
	return inv.args[i]
}

// ArgString coerces argument i to a string. It returns an error if the
// argument is missing or not a string.
func (inv *Invocation) ArgString(i int) (string, error) {
	var v any
	if r := inv.Wire(); r != nil {
		if s, ok := r.DecodeString(i); ok {
			return s, nil
		}
		v = r.Decode(i)
	} else if i >= 0 && i < len(inv.args) {
		v = inv.args[i]
	}
	if v == nil {
		return "", fmt.Errorf("aspect: %s.%s arg %d: missing", inv.component, inv.method, i)
	}
	s, ok := v.(string)
	if !ok {
		return "", fmt.Errorf("aspect: %s.%s arg %d: want string, got %T", inv.component, inv.method, i, v)
	}
	return s, nil
}

// ArgInt coerces argument i to an int. JSON transports decode numbers as
// float64, so float64 values that are exact integers are accepted, as are
// the common integer widths and numeric strings.
func (inv *Invocation) ArgInt(i int) (int, error) {
	v := inv.Arg(i)
	switch n := v.(type) {
	case int:
		return n, nil
	case int32:
		return int(n), nil
	case int64:
		return int(n), nil
	case uint:
		if n > math.MaxInt {
			return 0, fmt.Errorf("aspect: %s.%s arg %d: %d overflows int", inv.component, inv.method, i, n)
		}
		return int(n), nil
	case float64:
		if n != float64(int(n)) {
			return 0, fmt.Errorf("aspect: %s.%s arg %d: non-integer number %v", inv.component, inv.method, i, n)
		}
		return int(n), nil
	case string:
		p, err := strconv.Atoi(n)
		if err != nil {
			return 0, fmt.Errorf("aspect: %s.%s arg %d: %w", inv.component, inv.method, i, err)
		}
		return p, nil
	case nil:
		return 0, fmt.Errorf("aspect: %s.%s arg %d: missing", inv.component, inv.method, i)
	default:
		return 0, fmt.Errorf("aspect: %s.%s arg %d: want int, got %T", inv.component, inv.method, i, v)
	}
}

// ArgFloat coerces argument i to a float64, from float32 or what ArgInt takes.
func (inv *Invocation) ArgFloat(i int) (float64, error) {
	v := inv.Arg(i)
	switch n := v.(type) {
	case float64:
		return n, nil
	case float32:
		return float64(n), nil
	case int:
		return float64(n), nil
	case int32:
		return float64(n), nil
	case int64:
		return float64(n), nil
	case uint:
		return float64(n), nil
	case string:
		p, err := strconv.ParseFloat(n, 64)
		if err != nil {
			return 0, fmt.Errorf("aspect: %s.%s arg %d: %w", inv.component, inv.method, i, err)
		}
		return p, nil
	case nil:
		return 0, fmt.Errorf("aspect: %s.%s arg %d: missing", inv.component, inv.method, i)
	default:
		return 0, fmt.Errorf("aspect: %s.%s arg %d: want float, got %T", inv.component, inv.method, i, v)
	}
}

// SetAttr attaches metadata to the invocation under the given key. Packages
// should use unexported key types, mirroring context.Context usage, so that
// independently developed aspects cannot collide.
func (inv *Invocation) SetAttr(key, value any) {
	if inv.attrs == nil {
		inv.attrs = make(map[any]any, 4)
	}
	inv.attrs[key] = value
}

// Attr returns the metadata stored under key, or nil.
func (inv *Invocation) Attr(key any) any {
	if inv.attrs == nil {
		return nil
	}
	return inv.attrs[key]
}

// DeleteAttr removes the metadata stored under key.
func (inv *Invocation) DeleteAttr(key any) {
	if inv.attrs != nil {
		delete(inv.attrs, key)
	}
}

// SetResult records the method body's outcome so post-activation aspects
// can observe it. The proxy calls this between the method body and
// post-activation.
func (inv *Invocation) SetResult(result any, err error) {
	inv.result = result
	inv.err = err
}

// Result returns the value the method body produced, if any.
func (inv *Invocation) Result() any { return inv.result }

// Err returns the error recorded on the invocation: the method body's error
// after execution, or an abort cause recorded by an aspect during
// pre-activation.
func (inv *Invocation) Err() error { return inv.err }

// SetErr records an error on the invocation. An aspect whose Precondition
// returns Abort should first call SetErr with the specific cause; the
// moderator surfaces it to the caller (falling back to ErrAborted).
func (inv *Invocation) SetErr(err error) { inv.err = err }

// String renders the invocation for diagnostics.
func (inv *Invocation) String() string {
	return fmt.Sprintf("%s.%s#%d", inv.component, inv.method, inv.ID())
}
