package syncguard

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/aspect"
)

// bufferModel is a reference interpreter for random admission/completion/
// cancellation sequences, used to cross-check the Buffer guard state.
type bufferModel struct {
	capacity  int
	committed int
	// outstanding admissions, not yet completed or cancelled
	prodPending []*aspect.Invocation
	consPending []*aspect.Invocation
}

func (m *bufferModel) producerAdmissible() bool {
	if len(m.prodPending) > 0 {
		return false
	}
	return m.committed+len(m.prodPending) < m.capacity
}

func (m *bufferModel) consumerAdmissible() bool {
	if len(m.consPending) > 0 {
		return false
	}
	return m.committed-len(m.consPending) > 0
}

// TestBufferMatchesModelProperty drives the buffer guards with random
// operation sequences and checks, at every step, that (a) admissibility
// matches an independent model, (b) the guard invariants hold, and (c) the
// committed count tracks the model.
func TestBufferMatchesModelProperty(t *testing.T) {
	run := func(ops []uint8, capRaw uint8) error {
		capacity := int(capRaw%5) + 1
		b, err := NewBuffer(capacity, "open", "assign")
		if err != nil {
			return err
		}
		prod, cons := b.ProducerAspect(), b.ConsumerAspect()
		model := &bufferModel{capacity: capacity}

		for step, op := range ops {
			switch op % 6 {
			case 0: // try to admit a producer
				i := inv("open")
				v := prod.Precondition(i)
				want := model.producerAdmissible()
				if (v == aspect.Resume) != want {
					return errorsStepf(step, "producer admissible=%v verdict=%v", want, v)
				}
				if v == aspect.Resume {
					model.prodPending = append(model.prodPending, i)
				}
			case 1: // try to admit a consumer
				i := inv("assign")
				v := cons.Precondition(i)
				want := model.consumerAdmissible()
				if (v == aspect.Resume) != want {
					return errorsStepf(step, "consumer admissible=%v verdict=%v", want, v)
				}
				if v == aspect.Resume {
					model.consPending = append(model.consPending, i)
				}
			case 2: // complete a pending producer
				if n := len(model.prodPending); n > 0 {
					i := model.prodPending[n-1]
					model.prodPending = model.prodPending[:n-1]
					prod.Postaction(i)
					model.committed++
				}
			case 3: // complete a pending consumer
				if n := len(model.consPending); n > 0 {
					i := model.consPending[n-1]
					model.consPending = model.consPending[:n-1]
					cons.Postaction(i)
					model.committed--
				}
			case 4: // cancel a pending producer
				if n := len(model.prodPending); n > 0 {
					i := model.prodPending[n-1]
					model.prodPending = model.prodPending[:n-1]
					prod.(aspect.Canceler).Cancel(i)
				}
			case 5: // cancel a pending consumer
				if n := len(model.consPending); n > 0 {
					i := model.consPending[n-1]
					model.consPending = model.consPending[:n-1]
					cons.(aspect.Canceler).Cancel(i)
				}
			}
			if err := b.CheckInvariants(); err != nil {
				return errorsStepf(step, "invariant: %v", err)
			}
			if b.Count() != model.committed {
				return errorsStepf(step, "count=%d model=%d", b.Count(), model.committed)
			}
		}
		return nil
	}

	f := func(ops []uint8, capRaw uint8) bool {
		if err := run(ops, capRaw); err != nil {
			t.Logf("sequence failed: %v", err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func errorsStepf(step int, format string, args ...any) error {
	return fmt.Errorf("step %d: %s", step, fmt.Sprintf(format, args...))
}
