// Coverage: accumulate the concurrency coverage of repeated test
// executions of the etcd_7443 kernel (the paper's Fig. 6a case study) and
// watch the requirement universe and the covered set evolve per delay
// bound.
//
//	go run ./examples/coverage
package main

import (
	"fmt"
	"strings"

	"goat/internal/cover"
	"goat/internal/goker"
	"goat/internal/report"
	"goat/internal/sim"
)

func main() {
	k, ok := goker.ByID("etcd_7443")
	if !ok {
		panic("etcd_7443 missing")
	}
	const iters = 40

	for _, d := range []int{0, 2} {
		fmt.Printf("=== delay bound D=%d ===\n", d)
		model := cover.NewModel(nil)
		for i := 0; i < iters; i++ {
			r := goker.Run(k, sim.Options{Seed: int64(i), Delays: d})
			st := model.AddRun(r.Trace)
			if i%8 == 0 || i == iters-1 {
				bar := strings.Repeat("█", int(st.Percent/4))
				fmt.Printf("iter %3d: %5.1f%% (%d/%d) %s\n", st.Run, st.Percent, st.Covered, st.Total, bar)
			}
		}
		fmt.Println()
		if d == 2 {
			fmt.Println("final coverage table at D=2:")
			fmt.Println(report.CoverageTable(nil, model))
			fmt.Println("uncovered requirements point at schedules not yet exercised")
			fmt.Println("(or at dead code), exactly as the paper prescribes:")
			for i, r := range model.Uncovered() {
				if i == 8 {
					fmt.Printf("  ... and %d more\n", len(model.Uncovered())-8)
					break
				}
				fmt.Printf("  %s\n", r)
			}
		}
	}
}
