package main

import "testing"

func TestFleetPopulation(t *testing.T) {
	fp := newFleetPop()
	pop := fp.population()
	if want := 27 + 3*interpPerBench + 3*analyticPerBench; pop.n != want {
		t.Fatalf("population has %d keys, want %d", pop.n, want)
	}
	// Every index builds its own key.
	seen := make(map[string]int, pop.n)
	for i := 0; i < pop.n; i++ {
		raw := pop.raw(i)
		if j, dup := seen[raw]; dup {
			t.Fatalf("keys %d and %d are both %q", j, i, raw)
		}
		seen[raw] = i
	}
	// Each class holds the backend pin its range says, and every key
	// parses.
	keys, err := pop.sample(4096)
	if err != nil {
		t.Fatal(err)
	}
	for n, k := range keys {
		i := n * pop.n / len(keys)
		want := ""
		switch {
		case i >= fp.analyticStart():
			want = "analytic"
		case i >= fp.interpolatedStart():
			want = "interpolated"
		}
		if k.q.Backend != want {
			t.Errorf("key %d %q has backend %q, want %q", i, k.raw, k.q.Backend, want)
		}
	}
	for _, l := range fp.lattice {
		if i, ok := seen[l]; !ok || i >= len(fp.measured) {
			t.Errorf("lattice point %q is not a measured key", l)
		}
	}
}
