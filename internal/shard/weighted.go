package shard

// The weighted partitioner: when a wall-time profile knows how long
// points actually take, balancing by point count wastes worker time —
// one shard full of 2048-size GEMMs finishes long after a shard of
// small ones. PartitionWeighted schedules profiled points greedily
// onto the least-loaded shard in longest-processing-time order (LPT,
// makespan <= 4/3·OPT + one point of slack), and falls back to the
// PR 4 rendezvous placement for points the profile has never seen, so
// an empty profile degrades to exactly the unweighted partition.

import (
	"fmt"
	"sort"

	"accesys/internal/sweep"
)

// group is one fingerprint's worth of points: duplicates (e.g. ViT
// scenarios keyed by physical config) must share a shard so no result
// simulates twice, and only the first run is cold, so the group costs
// one wall regardless of its size.
type group struct {
	fingerprint string // raw
	indexes     []int  // expansion indexes, ascending
	wallNs      int64  // profiled wall; 0 when unprofiled
	profiled    bool
}

// PartitionWeighted assigns every point to one of n shards, balancing
// predicted wall time using the profile's estimates. Unprofiled
// fingerprints keep their rendezvous placement (charged at the mean
// profiled wall); profiled fingerprints are placed greedily in LPT
// order onto the least-loaded shard. The result is deterministic given
// the same points and profile state. A nil or empty-overlap profile
// returns exactly Partition's plan.
func PartitionWeighted(scenarioName string, full bool, points []sweep.Point, n int, prof *sweep.Profile) (*Plan, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: need at least one shard, have %d", n)
	}

	// Group points by fingerprint in first-appearance order.
	var groups []*group
	byFP := map[string]*group{}
	profiledPoints := 0
	for i, pt := range points {
		if pt.Fingerprint == "" {
			return nil, fmt.Errorf("shard: point %q has no fingerprint; uncacheable points cannot be sharded", pt.Key)
		}
		g, ok := byFP[pt.Fingerprint]
		if !ok {
			g = &group{fingerprint: pt.Fingerprint}
			if prof != nil {
				if w, found := prof.Wall(pt.Fingerprint); found {
					g.wallNs = w.Nanoseconds()
					g.profiled = true
				}
			}
			byFP[pt.Fingerprint] = g
			groups = append(groups, g)
		}
		g.indexes = append(g.indexes, i)
		if g.profiled {
			profiledPoints++
		}
	}

	var profiled []*group
	var meanNs, totalNs int64
	for _, g := range groups {
		if g.profiled {
			profiled = append(profiled, g)
			totalNs += g.wallNs
		}
	}
	if len(profiled) == 0 {
		// Nothing to balance on: the unweighted partition, exactly.
		return Partition(scenarioName, full, points, n)
	}
	meanNs = totalNs / int64(len(profiled))
	if meanNs < 1 {
		meanNs = 1
	}

	// Unprofiled groups keep their rendezvous shard (stable placement:
	// profiling more points never shuffles the unprofiled remainder),
	// charged at the mean profiled wall.
	loads := make([]int64, n)
	assigned := map[string]int{}
	for _, g := range groups {
		if g.profiled {
			continue
		}
		k := Assign(g.fingerprint, n)
		assigned[g.fingerprint] = k
		loads[k] += meanNs
	}

	// LPT: heaviest profiled group first onto the least-loaded shard.
	// Equal-wall groups order by earliest expansion index, and the
	// least-loaded scan uses a strict < so shards carrying equal load
	// always lose to the lowest shard index — both tie-breaks are
	// pinned (TestWeightedPartitionEqualLoadTieGoesToLowestShard), so
	// weighted plans are byte-stable across runs and hosts.
	sort.SliceStable(profiled, func(a, b int) bool {
		if profiled[a].wallNs != profiled[b].wallNs {
			return profiled[a].wallNs > profiled[b].wallNs
		}
		return profiled[a].indexes[0] < profiled[b].indexes[0]
	})
	for _, g := range profiled {
		best := 0
		for k := 1; k < n; k++ {
			if loads[k] < loads[best] {
				best = k
			}
		}
		assigned[g.fingerprint] = best
		loads[best] += g.wallNs
	}

	p := &Plan{
		Scenario:        scenarioName,
		Full:            full,
		Shards:          n,
		Counts:          make([]int, n),
		Weighted:        true,
		Profiled:        profiledPoints,
		PredictedWallNs: loads,
	}
	p.Points = make([]Assignment, len(points))
	for i, pt := range points {
		k := assigned[pt.Fingerprint]
		p.Points[i] = Assignment{Index: i, Key: pt.Key, Fingerprint: Digest(pt.Fingerprint), Shard: k}
		p.Counts[k]++
	}
	return p, nil
}
