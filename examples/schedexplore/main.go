// Schedexplore: measure how the delay bound D changes the number of
// executions needed to expose rare bugs — the paper's Objective 2 on three
// of the hardest GoKer kernels.
//
//	go run ./examples/schedexplore
package main

import (
	"fmt"

	"goat/internal/detect"
	"goat/internal/goker"
	"goat/internal/harness"
)

func main() {
	bugs := []string{"serving_2137", "moby_28462", "kubernetes_6632"}
	const budget = 2000

	fmt.Printf("%-20s", "bug")
	for d := 0; d <= 4; d++ {
		fmt.Printf("%12s", fmt.Sprintf("D=%d", d))
	}
	fmt.Println("   (executions until first detection; X = not in budget)")

	for _, id := range bugs {
		k, ok := goker.ByID(id)
		if !ok {
			panic("unknown bug " + id)
		}
		fmt.Printf("%-20s", id)
		for d := 0; d <= 4; d++ {
			spec := harness.Spec{
				Name:     fmt.Sprintf("goat-D%d", d),
				Detector: detect.Goat{},
				Delays:   d,
			}
			cell := harness.MinExecs(k, spec, budget, 0)
			if cell.Found {
				fmt.Printf("%12d", cell.MinExecs)
			} else {
				fmt.Printf("%12s", "X")
			}
		}
		fmt.Println()
	}
	fmt.Println("\nA few injected yields collapse the search: rare bugs that survive")
	fmt.Println("hundreds of native schedules fall within a handful of perturbed ones.")
}
