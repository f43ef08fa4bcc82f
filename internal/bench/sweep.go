package bench

import (
	"fmt"

	"splitft/internal/model"
)

// sweep reruns the Fig 8 microbenchmark under every named profile and
// reports the 128 B latencies (a synchronous NCL record, a dfs write +
// fdatasync, a buffered dfs write), so the fabric and storage axes are
// directly comparable: CX6RoCE100 must beat the baseline on NCL latency,
// FastDFS on the strong-DFS column.
func sweep(sc Scale, seed int64) (Report, error) {
	rep := Report{Title: "Profile sweep: 128B write latency per hardware profile"}
	for _, name := range model.Names() {
		prof, ok := model.ByName(name)
		if !ok {
			return rep, fmt.Errorf("sweep: unknown profile %q", name)
		}
		psc := sc
		psc.Profile = prof
		micro, err := fig8(psc, seed)
		rep.count(&micro)
		if err != nil {
			return rep, fmt.Errorf("sweep %s: %w", name, err)
		}
		for _, variant := range []string{"NCL", "strong-bench DFS", "weak-bench DFS"} {
			v, _ := micro.Value("128B", variant)
			rep.add(name, variant, v, "ns")
		}
	}
	return rep, nil
}
