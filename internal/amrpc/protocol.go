// Package amrpc is the distribution substrate of the framework: a small
// JSON-over-TCP RPC layer through which a remote client invokes the
// participating methods of a guarded component. The aspects run on the
// server, around the functional component, exactly as they do for local
// callers — the client stub implements the same Invoker interface as the
// local proxy, giving the location transparency the paper lists among the
// interaction requirements (Section 2).
//
// The wire protocol is newline-delimited JSON. Each request carries the
// component, the method, positional arguments, and metadata (bearer token,
// wait-queue priority); each response carries the result or a coded error
// that the client rehydrates so errors.Is against the framework's sentinel
// errors keeps working across the network.
//
// This file declares the frames, the error codes and their mapping to the
// framework's sentinels; codec.go reads and writes the frames. A frame is
// one JSON object on one line whose members appear in the order the structs
// below declare them, zero-valued optional members left out. Its last
// member, sum, is the CRC-32 (IEEE) of the line up to the comma before it
// plus the closing brace — the frame as it would read unsigned — and a
// receiver checks it over the bytes it received, before acting on any
// other member.
package amrpc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/aspect"
	"repro/internal/aspects/auth"
	"repro/internal/aspects/fault"
	"repro/internal/aspects/sched"
	"repro/internal/naming"
	"repro/internal/proxy"
)

// request is one wire request.
type request struct {
	ID        uint64            `json:"id"`
	Component string            `json:"component"`
	Method    string            `json:"method"`
	Args      []json.RawMessage `json:"args,omitempty"`
	Token     string            `json:"token,omitempty"`
	Priority  int               `json:"priority,omitempty"`
	// TimeoutMS propagates the client context's remaining deadline so a
	// server-side invocation blocked on a wait queue is released when the
	// caller has certainly stopped caring.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Fence carries a domain-ownership lease term on cluster-internal
	// traffic (forwarded admissions, wake notifications). Zero means
	// unfenced; a nonzero fence obliges the receiver to hold the target
	// domain's lease at exactly this term or refuse with CodeStaleTerm.
	Fence uint64 `json:"fence,omitempty"`
	// Sum is an optional CRC-32 (IEEE) of the frame as it reads without
	// this member. A zero Sum means "unsigned" (foreign or legacy peers); a
	// nonzero Sum that fails verification means the frame was corrupted
	// in flight and the receiver must discard it without acting on any
	// field — including ID, which can itself be corrupt.
	Sum uint32 `json:"sum,omitempty"`
}

// response is one wire response.
type response struct {
	ID     uint64          `json:"id"`
	Result json.RawMessage `json:"result,omitempty"`
	Err    string          `json:"err,omitempty"`
	Code   string          `json:"code,omitempty"`
	// RetryAfterMS accompanies CodeOverloaded: the server's hint for how
	// long the client should back off before resubmitting. Zero means the
	// server offered no hint.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
	// Sum mirrors request.Sum: frame integrity for the return path.
	Sum uint32 `json:"sum,omitempty"`
}

// Error codes carried on the wire so sentinel errors survive the boundary.
const (
	CodeAborted         = "aborted"
	CodeUnauthenticated = "unauthenticated"
	CodeDenied          = "permission-denied"
	CodeShed            = "shed"
	CodeCircuitOpen     = "circuit-open"
	CodeBulkheadFull    = "bulkhead-full"
	CodeNoMethod        = "no-method"
	CodeNoComponent     = "no-component"
	CodeCancelled       = "cancelled"
	CodeDeadline        = "deadline"
	CodeBadRequest      = "bad-request"
	CodeInternal        = "internal"
	CodeStaleTerm       = "stale-term"
	// CodeOverloaded marks a request the server refused before admission:
	// either its connection's work queue was full, or the admission-aware
	// shed policy judged the target domain too deep to park another
	// caller. The response may carry a retry-after hint.
	CodeOverloaded = "overloaded"
)

// ErrOverloaded is the sentinel behind CodeOverloaded: the server shed the
// request before it reached the moderator, so no aspect saw it and no
// guard state changed — always safe to retry after backing off.
var ErrOverloaded = errors.New("amrpc: server overloaded")

// RemoteError is an application error transported over the RPC boundary.
// It unwraps to the framework sentinel matching its code, so errors.Is
// works transparently for remote callers.
type RemoteError struct {
	Code string
	Msg  string
	// RetryAfterMS is the server's backoff hint on CodeOverloaded
	// rejections; zero when the server offered none.
	RetryAfterMS int64
}

// Error implements error.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("amrpc: remote error (%s): %s", e.Code, e.Msg)
}

// Unwrap maps the code back to the local sentinel.
func (e *RemoteError) Unwrap() error {
	if s, ok := codeToSentinel[e.Code]; ok {
		return s
	}
	return nil
}

var codeToSentinel = map[string]error{
	CodeAborted:         aspect.ErrAborted,
	CodeUnauthenticated: auth.ErrUnauthenticated,
	CodeDenied:          auth.ErrPermissionDenied,
	CodeShed:            sched.ErrShed,
	CodeCircuitOpen:     fault.ErrCircuitOpen,
	CodeBulkheadFull:    fault.ErrBulkheadFull,
	CodeNoMethod:        proxy.ErrNoSuchMethod,
	CodeCancelled:       context.Canceled,
	CodeDeadline:        context.DeadlineExceeded,
	CodeStaleTerm:       naming.ErrStaleTerm,
	CodeOverloaded:      ErrOverloaded,
}

// codeFor classifies a server-side error for the wire.
func codeFor(err error) string {
	switch {
	case errors.Is(err, auth.ErrUnauthenticated):
		return CodeUnauthenticated
	case errors.Is(err, auth.ErrPermissionDenied):
		return CodeDenied
	case errors.Is(err, sched.ErrShed):
		return CodeShed
	case errors.Is(err, fault.ErrCircuitOpen):
		return CodeCircuitOpen
	case errors.Is(err, fault.ErrBulkheadFull):
		return CodeBulkheadFull
	case errors.Is(err, proxy.ErrNoSuchMethod):
		return CodeNoMethod
	case errors.Is(err, context.Canceled):
		return CodeCancelled
	case errors.Is(err, context.DeadlineExceeded):
		return CodeDeadline
	case errors.Is(err, naming.ErrStaleTerm):
		return CodeStaleTerm
	case errors.Is(err, ErrOverloaded):
		return CodeOverloaded
	case errors.Is(err, aspect.ErrAborted):
		return CodeAborted
	default:
		return CodeInternal
	}
}
