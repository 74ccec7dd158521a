package core_test

import (
	"context"
	"fmt"

	"repro/internal/aspect"
	"repro/internal/aspects/syncguard"
	"repro/internal/core"
)

// Example assembles the smallest guarded component: one method, one
// synchronization aspect.
func Example() {
	counter := 0
	mutex := syncguard.NewMutex("inc")

	b := core.NewComponent("counter")
	b.Bind("inc", func(*aspect.Invocation) (any, error) {
		counter++
		return counter, nil
	})
	b.Use("inc", aspect.KindSynchronization, mutex.Aspect("inc-mutex"))
	comp, err := b.Build()
	if err != nil {
		fmt.Println("build:", err)
		return
	}

	result, err := comp.Proxy().Invoke(context.Background(), "inc")
	fmt.Println(result, err)
	// Output: 1 <nil>
}
