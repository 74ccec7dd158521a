// Package fault provides the fault-tolerance concern of the framework —
// one of the interaction properties the paper names in Section 1 — as a
// guard aspect, evaluated by the moderator like any other concern:
// CircuitBreaker sheds calls to a failing component. Retrying a remote
// call over a flaky transport is the amrpc client's policy
// (amrpc.RetryPolicy), since only the transport knows which failures left
// the call unexecuted.
package fault

import (
	"fmt"
	"time"

	"repro/internal/aspect"
)

// ErrCircuitOpen is recorded on invocations shed by an open circuit
// breaker. It carries its own amrpc wire code, so a remote caller's
// errors.Is matches the refusal it receives against it again.
var ErrCircuitOpen error = &codedError{"fault: circuit open", "circuit-open"}

// codedError is a sentinel that carries its own amrpc wire code.
type codedError struct{ msg, code string }

func (e *codedError) Error() string { return e.msg }

// WireCode is the code amrpc sends a refusal wrapping e under.
func (e *codedError) WireCode() string { return e.code }

// breakerState is the classic three-state circuit machine.
type breakerState int

const (
	stateClosed breakerState = iota + 1
	stateOpen
	stateHalfOpen
)

// CircuitBreaker sheds invocations of a component that keeps failing:
// after Threshold consecutive failures the circuit opens and calls abort
// immediately; after Cooldown a single probe is admitted (half-open); a
// successful probe closes the circuit, a failed one re-opens it.
type CircuitBreaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time

	state         breakerState
	failures      int
	openedAt      time.Time
	probeInFlight bool
}

// CircuitBreakerConfig configures NewCircuitBreaker.
type CircuitBreakerConfig struct {
	// Threshold is the number of consecutive failures that opens the
	// circuit.
	Threshold int
	// Cooldown is how long the circuit stays open before a probe.
	Cooldown time.Duration
	// Now overrides the clock (tests).
	Now func() time.Time
}

// NewCircuitBreaker creates a closed circuit breaker.
func NewCircuitBreaker(cfg CircuitBreakerConfig) (*CircuitBreaker, error) {
	if cfg.Threshold <= 0 {
		return nil, fmt.Errorf("fault: breaker threshold %d must be positive", cfg.Threshold)
	}
	if cfg.Cooldown <= 0 {
		return nil, fmt.Errorf("fault: breaker cooldown %v must be positive", cfg.Cooldown)
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	return &CircuitBreaker{
		threshold: cfg.Threshold,
		cooldown:  cfg.Cooldown,
		now:       now,
		state:     stateClosed,
	}, nil
}

// State returns "closed", "open", or "half-open" (diagnostics; call only
// under the admission lock).
func (cb *CircuitBreaker) State() string {
	switch cb.state {
	case stateOpen:
		return "open"
	case stateHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// Aspect returns the breaker's guard aspect. Register it for every method
// whose failures should trip (and be shed by) the breaker.
func (cb *CircuitBreaker) Aspect(name string) aspect.Aspect {
	return &aspect.Func{
		AspectName: name,
		AspectKind: aspect.KindFaultTolerance,
		Pre: func(inv *aspect.Invocation) aspect.Verdict {
			switch cb.state {
			case stateOpen:
				if cb.now().Sub(cb.openedAt) < cb.cooldown {
					inv.SetErr(fmt.Errorf("fault: %s.%s: %w",
						inv.Component(), inv.Method(), ErrCircuitOpen))
					return aspect.Abort
				}
				cb.state = stateHalfOpen
				cb.probeInFlight = false
				fallthrough
			case stateHalfOpen:
				if cb.probeInFlight {
					inv.SetErr(fmt.Errorf("fault: %s.%s: probe in flight: %w",
						inv.Component(), inv.Method(), ErrCircuitOpen))
					return aspect.Abort
				}
				cb.probeInFlight = true
				return aspect.Resume
			default:
				return aspect.Resume
			}
		},
		Post: func(inv *aspect.Invocation) {
			failed := inv.Err() != nil
			switch cb.state {
			case stateHalfOpen:
				cb.probeInFlight = false
				if failed {
					cb.trip()
				} else {
					cb.state = stateClosed
					cb.failures = 0
				}
			case stateClosed:
				if failed {
					cb.failures++
					if cb.failures >= cb.threshold {
						cb.trip()
					}
				} else {
					cb.failures = 0
				}
			}
		},
		CancelFn: func(*aspect.Invocation) {
			if cb.state == stateHalfOpen {
				cb.probeInFlight = false
			}
		},
	}
}

func (cb *CircuitBreaker) trip() {
	cb.state = stateOpen
	cb.failures = 0
	cb.openedAt = cb.now()
}
