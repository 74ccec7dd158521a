package syncguard

import (
	"fmt"

	"repro/internal/aspect"
)

// Buffer is the guard state of a bounded-buffer producer/consumer protocol
// — the synchronization constraints of the paper's trouble-ticketing
// example, extracted from the functional component. The component keeps the
// data; the Buffer keeps only admission counters.
//
// The producer and consumer aspects wake each other's methods, so the
// moderator places both methods in one admission domain at registration —
// their hooks mutate this shared state under a single lock even on the
// sharded moderator.
//
// At most one producer and one consumer execute at a time, matching the
// paper's ActiveOpen == 0 / ActiveAssign == 0 guards. A producer reserves
// its slot at admission and commits it at post-activation, so a consumer
// never claims an item whose producer has not completed.
//
// Note: the paper's Figure 7 listing increments the item counter inside
// precondition() and bumps ActiveAssign where ActiveOpen is meant (an
// evident typo). This implementation realizes the intended monitor
// semantics: reservation at admission, commit at post-activation, rollback
// on cancellation.
type Buffer struct {
	capacity int
	producer string // producer method name (the paper's "open")
	consumer string // consumer method name (the paper's "assign")

	count    int // committed items in the buffer
	reserved int // slots reserved by admitted, not-yet-completed producers
	claimed  int // items claimed by admitted, not-yet-completed consumers

	activeProducers int
	activeConsumers int
}

// NewBuffer creates bounded-buffer guard state for a buffer of the given
// capacity, with the named producer and consumer methods.
func NewBuffer(capacity int, producerMethod, consumerMethod string) (*Buffer, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("syncguard: buffer capacity %d must be positive", capacity)
	}
	if producerMethod == "" || consumerMethod == "" {
		return nil, fmt.Errorf("syncguard: buffer methods %q/%q must be non-empty", producerMethod, consumerMethod)
	}
	if producerMethod == consumerMethod {
		return nil, fmt.Errorf("syncguard: producer and consumer method are both %q", producerMethod)
	}
	return &Buffer{
		capacity: capacity,
		producer: producerMethod,
		consumer: consumerMethod,
	}, nil
}

// ProducerAspect returns the synchronization aspect guarding the producer
// method (the paper's OpenSynchronizationAspect).
func (b *Buffer) ProducerAspect() aspect.Aspect {
	g, err := NewGuard(b.producer+"-sync", GuardSpec{
		Ready: func(*aspect.Invocation) bool {
			if b.activeProducers > 0 {
				return false
			}
			return b.count+b.reserved < b.capacity
		},
		Admit: func(*aspect.Invocation) {
			b.reserved++
			b.activeProducers++
		},
		Release: nil, // split: Cancel differs from Postaction
		Wakes:   []string{b.producer, b.consumer},
	})
	if err != nil {
		panic(err)
	}
	return &bufferProducer{Guard: g, b: b}
}

// ConsumerAspect returns the synchronization aspect guarding the consumer
// method (the paper's AssignSynchronizationAspect).
func (b *Buffer) ConsumerAspect() aspect.Aspect {
	g, err := NewGuard(b.consumer+"-sync", GuardSpec{
		Ready: func(*aspect.Invocation) bool {
			if b.activeConsumers > 0 {
				return false
			}
			return b.count-b.claimed > 0
		},
		Admit: func(*aspect.Invocation) {
			b.claimed++
			b.activeConsumers++
		},
		Release: nil,
		Wakes:   []string{b.producer, b.consumer},
	})
	if err != nil {
		panic(err)
	}
	return &bufferConsumer{Guard: g, b: b}
}

// bufferProducer specializes the generic guard: commit on post-activation,
// rollback on cancel.
type bufferProducer struct {
	*Guard
	b *Buffer
}

func (p *bufferProducer) Postaction(inv *aspect.Invocation) {
	p.b.reserved--
	p.b.activeProducers--
	if inv.Err() == nil {
		p.b.count++ // commit the reserved slot
	}
}

func (p *bufferProducer) Cancel(*aspect.Invocation) {
	p.b.reserved--
	p.b.activeProducers--
}

// bufferConsumer commits a removal on post-activation, rolls back on cancel.
type bufferConsumer struct {
	*Guard
	b *Buffer
}

func (c *bufferConsumer) Postaction(inv *aspect.Invocation) {
	c.b.claimed--
	c.b.activeConsumers--
	if inv.Err() == nil {
		c.b.count-- // commit the claimed removal
	}
}

func (c *bufferConsumer) Cancel(*aspect.Invocation) {
	c.b.claimed--
	c.b.activeConsumers--
}

// Count returns the number of committed items (diagnostics; call only under
// the admission lock or when the component is quiescent).
func (b *Buffer) Count() int { return b.count }

// CheckInvariants validates the guard-state invariants, returning a
// descriptive error on violation. Tests call it between operations.
func (b *Buffer) CheckInvariants() error {
	switch {
	case b.count < 0:
		return fmt.Errorf("syncguard: buffer count %d < 0", b.count)
	case b.count > b.capacity:
		return fmt.Errorf("syncguard: buffer count %d > capacity %d", b.count, b.capacity)
	case b.reserved < 0:
		return fmt.Errorf("syncguard: reserved %d < 0", b.reserved)
	case b.claimed < 0:
		return fmt.Errorf("syncguard: claimed %d < 0", b.claimed)
	case b.count+b.reserved > b.capacity:
		return fmt.Errorf("syncguard: count %d + reserved %d > capacity %d", b.count, b.reserved, b.capacity)
	case b.claimed > b.count:
		return fmt.Errorf("syncguard: claimed %d > count %d", b.claimed, b.count)
	case b.activeProducers < 0 || b.activeConsumers < 0:
		return fmt.Errorf("syncguard: negative active counters %d/%d", b.activeProducers, b.activeConsumers)
	case b.activeProducers > 1 || b.activeConsumers > 1:
		return fmt.Errorf("syncguard: exclusivity violated: %d producers, %d consumers", b.activeProducers, b.activeConsumers)
	}
	return nil
}
