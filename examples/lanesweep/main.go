// Lanesweep regenerates the paper's Figure 1 motivation: scaling the
// vector lane count from 1 to 8 helps long-vector applications almost
// linearly, does little for short-vector codes, and nothing at all for
// non-vectorizable ones — the underutilization Vector Lane Threading
// reclaims.
package main

import (
	"fmt"
	"log"
	"strings"

	"vlt"
)

func main() {
	data, err := vlt.NewEngine(0).Figure1(1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("speedup vs lane count (base vector processor, single thread)")
	fmt.Printf("%-10s", "workload")
	for _, l := range vlt.Figure1Lanes {
		fmt.Printf("  %7s", fmt.Sprintf("%dL", l))
	}
	fmt.Println("  profile")
	for _, row := range data.Rows {
		fmt.Printf("%-10s", row.Workload)
		for _, s := range row.Speedup {
			fmt.Printf("  %7.2f", s)
		}
		final := row.Speedup[len(row.Speedup)-1]
		bar := strings.Repeat("#", int(final*4))
		fmt.Printf("  %s\n", bar)
	}
	fmt.Println("\nlong vectors scale; short vectors flatten; scalar code is immune to lanes")
}
