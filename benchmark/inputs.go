package main

import "math/rand"

// ticketIn is one generated trouble ticket. open is the pre-boxed argument
// list of the open call, so the measured allocations are the system's and
// not the harness boxing two strings per op.
type ticketIn struct {
	id, summary string
	open        []any
}

// inputs is everything a workload feeds the program under test. It is a
// pure function of the seed: the program sees only these values.
type inputs struct {
	tickets []ticketIn
	// byID maps a ticket id to its summary; RPC workloads use it to check
	// that an assigned ticket is one that was opened, intact.
	byID map[string]string
	// methodOrder is the permutation that deals cluster_forward's methods
	// to its callers.
	methodOrder []int
}

// numTickets is a power of two so the hot loops index with a mask. It is
// large enough that the mean string length (and so the mean frame size)
// is the same to a fraction of a byte on every seed.
const numTickets = 1024

const inputAlphabet = "abcdefghijklmnopqrstuvwxyz0123456789 -"

func randString(rng *rand.Rand) string {
	b := make([]byte, 8+rng.Intn(25)) // 8..32 bytes
	for i := range b {
		b[i] = inputAlphabet[rng.Intn(len(inputAlphabet))]
	}
	return string(b)
}

func genInputs(seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{
		tickets: make([]ticketIn, 0, numTickets),
		byID:    make(map[string]string, numTickets),
	}
	for len(in.tickets) < numTickets {
		id := randString(rng)
		if _, dup := in.byID[id]; dup {
			continue
		}
		summary := randString(rng)
		in.byID[id] = summary
		in.tickets = append(in.tickets, ticketIn{id: id, summary: summary, open: []any{id, summary}})
	}
	in.methodOrder = rng.Perm(len(clusterMethods))
	return in
}
