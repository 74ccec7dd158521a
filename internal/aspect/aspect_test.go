package aspect

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestVerdictString(t *testing.T) {
	cases := []struct {
		v    Verdict
		want string
	}{
		{Resume, "resume"},
		{Block, "block"},
		{Abort, "abort"},
		{Verdict(0), "verdict(0)"},
		{Verdict(42), "verdict(42)"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("Verdict(%d).String() = %q, want %q", int(c.v), got, c.want)
		}
	}
}

func TestVerdictZeroValueIsInvalid(t *testing.T) {
	// The zero value must not silently mean Resume: a forgotten return
	// in an aspect is then caught by the moderator, which aborts on any
	// verdict that is not one of the three.
	var v Verdict
	if v == Resume || v == Block || v == Abort {
		t.Fatalf("zero Verdict is %v, want none of the three verdicts", v)
	}
}

func TestKindValidate(t *testing.T) {
	if err := KindSynchronization.Validate(); err != nil {
		t.Errorf("builtin kind invalid: %v", err)
	}
	if err := Kind("custom-thing").Validate(); err != nil {
		t.Errorf("custom kind invalid: %v", err)
	}
	if err := Kind("").Validate(); err == nil {
		t.Error("empty kind must not validate")
	}
}

func TestBuiltinKindsDistinct(t *testing.T) {
	kinds := []Kind{
		KindSynchronization, KindScheduling, KindAuthentication,
		KindAuthorization, KindFaultTolerance, KindAudit, KindMetrics,
	}
	seen := make(map[Kind]bool, len(kinds))
	for _, k := range kinds {
		if seen[k] {
			t.Errorf("duplicate kind %q", k)
		}
		seen[k] = true
	}
}

func TestFuncDefaults(t *testing.T) {
	f := &Func{}
	inv := NewInvocation(context.Background(), "c", "m", nil)
	if got := f.Precondition(inv); got != Resume {
		t.Errorf("nil Pre hook: got %v, want Resume", got)
	}
	f.Postaction(inv) // must not panic
	f.Cancel(inv)     // must not panic
	if got := f.Name(); got != "anonymous" {
		t.Errorf("empty name: got %q", got)
	}
	if f.Wakes() != nil {
		t.Errorf("default Wakes: got %v, want nil", f.Wakes())
	}
}

func TestFuncHooksInvoked(t *testing.T) {
	var pre, post, cancel int
	f := &Func{
		AspectName: "counting",
		AspectKind: KindAudit,
		Pre: func(inv *Invocation) Verdict {
			pre++
			return Block
		},
		Post:     func(inv *Invocation) { post++ },
		CancelFn: func(inv *Invocation) { cancel++ },
		WakeList: []string{"open", "assign"},
	}
	inv := NewInvocation(context.Background(), "c", "m", nil)
	if got := f.Precondition(inv); got != Block {
		t.Errorf("Precondition = %v, want Block", got)
	}
	f.Postaction(inv)
	f.Cancel(inv)
	if pre != 1 || post != 1 || cancel != 1 {
		t.Errorf("hook counts = %d/%d/%d, want 1/1/1", pre, post, cancel)
	}
	if f.Name() != "counting" || f.Kind() != KindAudit {
		t.Errorf("identity: %q/%q", f.Name(), f.Kind())
	}
	if len(f.Wakes()) != 2 {
		t.Errorf("Wakes = %v", f.Wakes())
	}
}

func TestNewConstructor(t *testing.T) {
	a := New("n", KindMetrics, nil, nil)
	if a.Name() != "n" || a.Kind() != KindMetrics {
		t.Fatalf("New: %q/%q", a.Name(), a.Kind())
	}
	inv := NewInvocation(context.Background(), "c", "m", nil)
	if a.Precondition(inv) != Resume {
		t.Fatal("nil pre must default to Resume")
	}
}

func TestInvocationIdentity(t *testing.T) {
	a := NewInvocation(context.Background(), "ticket", "open", []any{"t-1"})
	b := NewInvocation(context.Background(), "ticket", "open", []any{"t-2"})
	if a.ID() == b.ID() {
		t.Error("invocation IDs must be unique")
	}
	if a.Component() != "ticket" || a.Method() != "open" {
		t.Errorf("identity: %s.%s", a.Component(), a.Method())
	}
	if a.ID() == 0 {
		t.Error("ID must never be 0")
	}
	if want := fmt.Sprintf("ticket.open#%d", a.ID()); a.String() != want {
		t.Errorf("String = %q, want %q", a.String(), want)
	}
	// String reads through ID, so a record whose id was never read still
	// renders a real one.
	c := NewInvocation(context.Background(), "ticket", "assign", nil)
	if s := c.String(); strings.HasSuffix(s, "#0") || s != fmt.Sprintf("ticket.assign#%d", c.ID()) {
		t.Errorf("String before ID = %q", s)
	}
}

func TestReleaseClearsEveryField(t *testing.T) {
	type key struct{}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inv := NewInvocation(ctx, "c", "m", []any{"a"})
	inv.Priority = 7
	inv.SetAttr(key{}, "token")
	inv.SetResult("r", errors.New("boom"))
	inv.ID()
	attrs := inv.attrs
	inv.Release()
	if inv.ctx != nil || inv.component != "" || inv.method != "" || inv.args != nil ||
		inv.Priority != 0 || inv.result != nil || inv.err != nil || inv.id != 0 {
		t.Fatalf("released record keeps state: %+v", *inv)
	}
	if len(inv.attrs) != 0 {
		t.Fatalf("released record keeps attributes: %v", inv.attrs)
	}
	if reflect.ValueOf(inv.attrs).UnsafePointer() != reflect.ValueOf(attrs).UnsafePointer() {
		t.Error("Release must keep the attribute map for reuse")
	}
}

func TestInvocationNilContextDefaults(t *testing.T) {
	inv := NewInvocation(nil, "c", "m", nil) //nolint:staticcheck // deliberate nil
	if inv.Context() == nil {
		t.Fatal("nil ctx must default to Background")
	}
	select {
	case <-inv.Context().Done():
		t.Fatal("background context must not be done")
	default:
	}
}

func TestInvocationArgs(t *testing.T) {
	inv := NewInvocation(context.Background(), "c", "m", []any{"s", 7, 2.5})
	if inv.NumArgs() != 3 {
		t.Fatalf("NumArgs = %d", inv.NumArgs())
	}
	if inv.Arg(0) != "s" || inv.Arg(1) != 7 {
		t.Errorf("Arg values wrong: %v %v", inv.Arg(0), inv.Arg(1))
	}
	if inv.Arg(-1) != nil || inv.Arg(3) != nil {
		t.Error("out-of-range Arg must be nil")
	}
}

func TestArgString(t *testing.T) {
	inv := NewInvocation(context.Background(), "c", "m", []any{"hello", 5})
	s, err := inv.ArgString(0)
	if err != nil || s != "hello" {
		t.Errorf("ArgString(0) = %q, %v", s, err)
	}
	if _, err := inv.ArgString(1); err == nil {
		t.Error("ArgString on int must error")
	}
	if _, err := inv.ArgString(9); err == nil {
		t.Error("ArgString out of range must error")
	}
}

func TestArgInt(t *testing.T) {
	inv := NewInvocation(context.Background(), "c", "m",
		[]any{7, int64(8), float64(9), float64(9.5), "10", "x", nil, uint(11), int32(12)})
	cases := []struct {
		i      int
		want   int
		wantOK bool
	}{
		{0, 7, true},
		{1, 8, true},
		{2, 9, true},
		{3, 0, false}, // non-integral float
		{4, 10, true},
		{5, 0, false}, // non-numeric string
		{6, 0, false}, // nil
		{7, 11, true},
		{8, 12, true},
		{99, 0, false}, // out of range
	}
	for _, c := range cases {
		got, err := inv.ArgInt(c.i)
		if (err == nil) != c.wantOK {
			t.Errorf("ArgInt(%d) err = %v, wantOK=%v", c.i, err, c.wantOK)
			continue
		}
		if c.wantOK && got != c.want {
			t.Errorf("ArgInt(%d) = %d, want %d", c.i, got, c.want)
		}
	}
}

func TestArgFloat(t *testing.T) {
	inv := NewInvocation(context.Background(), "c", "m",
		[]any{1.5, float32(2.5), 3, int64(4), "5.5", "z", nil, struct{}{}})
	cases := []struct {
		i      int
		want   float64
		wantOK bool
	}{
		{0, 1.5, true},
		{1, 2.5, true},
		{2, 3, true},
		{3, 4, true},
		{4, 5.5, true},
		{5, 0, false},
		{6, 0, false},
		{7, 0, false},
	}
	for _, c := range cases {
		got, err := inv.ArgFloat(c.i)
		if (err == nil) != c.wantOK {
			t.Errorf("ArgFloat(%d) err = %v, wantOK=%v", c.i, err, c.wantOK)
			continue
		}
		if c.wantOK && got != c.want {
			t.Errorf("ArgFloat(%d) = %v, want %v", c.i, got, c.want)
		}
	}
}

func TestAttrs(t *testing.T) {
	type key struct{}
	inv := NewInvocation(context.Background(), "c", "m", nil)
	if inv.Attr(key{}) != nil {
		t.Error("unset attr must be nil")
	}
	inv.SetAttr(key{}, 42)
	if got := inv.Attr(key{}); got != 42 {
		t.Errorf("Attr = %v", got)
	}
	inv.SetAttr(key{}, 43)
	if got := inv.Attr(key{}); got != 43 {
		t.Errorf("overwritten Attr = %v", got)
	}
	inv.DeleteAttr(key{})
	if inv.Attr(key{}) != nil {
		t.Error("deleted attr must be nil")
	}
	// Deleting from an invocation with no attrs must not panic.
	fresh := NewInvocation(context.Background(), "c", "m", nil)
	fresh.DeleteAttr(key{})
}

func TestResultAndErr(t *testing.T) {
	inv := NewInvocation(context.Background(), "c", "m", nil)
	if inv.Result() != nil || inv.Err() != nil {
		t.Fatal("fresh invocation must have nil result/err")
	}
	cause := errors.New("boom")
	inv.SetResult("r", cause)
	if inv.Result() != "r" || !errors.Is(inv.Err(), cause) {
		t.Errorf("result=%v err=%v", inv.Result(), inv.Err())
	}
	inv.SetErr(nil)
	if inv.Err() != nil {
		t.Error("SetErr(nil) must clear")
	}
}

func TestInvocationIDsMonotonicProperty(t *testing.T) {
	// Property: successive invocations from one goroutine have strictly
	// increasing IDs.
	f := func(n uint8) bool {
		count := int(n%16) + 2
		var prev uint64
		for i := 0; i < count; i++ {
			inv := NewInvocation(context.Background(), "c", "m", nil)
			if inv.ID() <= prev {
				return false
			}
			prev = inv.ID()
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAttrsRoundTripProperty(t *testing.T) {
	// Property: for any set of distinct string keys and int values,
	// setting then reading each returns the stored value.
	type skey string
	f := func(keys []string, vals []int16) bool {
		inv := NewInvocation(context.Background(), "c", "m", nil)
		n := len(keys)
		if len(vals) < n {
			n = len(vals)
		}
		want := make(map[skey]int16, n)
		for i := 0; i < n; i++ {
			want[skey(keys[i])] = vals[i]
		}
		for k, v := range want {
			inv.SetAttr(k, v)
		}
		for k, v := range want {
			if inv.Attr(k) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestInvocationSize pins the invocation record at 128 bytes on 64-bit
// platforms, exactly the 128-byte allocation size class: with the creation
// timestamp gone it left the 160-byte class (EXPERIMENTS.md E27). Records
// are pooled, but one that is never released, and every record a pool
// refill builds, is still allocated, and the pool's per-P caches hold
// whole records. Two inline attribute slots, which put it in the 240-byte
// size class, cost inproc_fast 12 % of its throughput (E26). Growing it is
// a decision to measure, not a side effect.
func TestInvocationSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sized for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Invocation{}); got != 128 {
		t.Fatalf("Invocation is %d bytes, want 128", got)
	}
}
