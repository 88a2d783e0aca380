package gateway

import (
	"fmt"
	"testing"
)

func namedReplicas(n int) []*Replica {
	out := make([]*Replica, n)
	for i := range out {
		out[i] = &Replica{ID: fmt.Sprintf("r%d", i)}
	}
	return out
}

func TestRingEmpty(t *testing.T) {
	r := buildRing(nil)
	if got := r.candidates("model"); got != nil {
		t.Fatalf("empty ring candidates = %v, want nil", got)
	}
	if r.owner("model") != nil {
		t.Fatal("empty ring has an owner")
	}
}

func TestRingDeterministicAndComplete(t *testing.T) {
	reps := namedReplicas(4)
	a, b := buildRing(reps), buildRing(reps)
	for _, key := range []string{"prod", "canary", "m0", "m1", "m2"} {
		ca, cb := a.candidates(key), b.candidates(key)
		if len(ca) != len(reps) || len(cb) != len(reps) {
			t.Fatalf("key %q: candidate count %d/%d, want %d", key, len(ca), len(cb), len(reps))
		}
		seen := map[*Replica]bool{}
		for i := range ca {
			if ca[i] != cb[i] {
				t.Fatalf("key %q: two builds disagree at position %d", key, i)
			}
			if seen[ca[i]] {
				t.Fatalf("key %q: duplicate candidate %s", key, ca[i].ID)
			}
			seen[ca[i]] = true
		}
	}
}

// Every replica should own a reasonable share of keys: with 64 vnodes the
// split over many keys must not starve anyone.
func TestRingSpread(t *testing.T) {
	reps := namedReplicas(4)
	r := buildRing(reps)
	counts := map[*Replica]int{}
	const keys = 4000
	for i := 0; i < keys; i++ {
		counts[r.owner(fmt.Sprintf("model-%d", i))]++
	}
	for _, rep := range reps {
		share := float64(counts[rep]) / keys
		if share < 0.10 || share > 0.45 {
			t.Fatalf("replica %s owns %.1f%% of keys, want a sane share near 25%%", rep.ID, 100*share)
		}
	}
}

// Removing one replica must only move the keys it owned: consistent
// hashing's minimal-disruption property, which is what makes health
// ejections cheap for every other replica's batching locality.
func TestRingRemovalMovesOnlyOwnedKeys(t *testing.T) {
	reps := namedReplicas(4)
	full := buildRing(reps)
	reduced := buildRing(reps[:3]) // drop r3
	const keys = 2000
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("model-%d", i)
		before, after := full.owner(key), reduced.owner(key)
		if before != reps[3] && before != after {
			t.Fatalf("key %q moved from surviving %s to %s when r3 left", key, before.ID, after.ID)
		}
		if before == reps[3] && after == reps[3] {
			t.Fatalf("key %q still owned by removed replica", key)
		}
	}
}

// The spill sequence (candidates[1:]) is what least-in-flight routing and
// retry walk; it must visit the same replicas the full ring would, in the
// same order, regardless of membership slice order.
func TestRingCandidatesOrderIndependentOfMemberOrder(t *testing.T) {
	reps := namedReplicas(5)
	shuffled := []*Replica{reps[3], reps[0], reps[4], reps[2], reps[1]}
	a, b := buildRing(reps), buildRing(shuffled)
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("m%d", i)
		ca, cb := a.candidates(key), b.candidates(key)
		for j := range ca {
			if ca[j] != cb[j] {
				t.Fatalf("key %q: member order changed candidate %d (%s vs %s)",
					key, j, ca[j].ID, cb[j].ID)
			}
		}
	}
}
