// Command rtchip prints the modelled router's specification — the
// architectural half of the paper's Table 4 — and the comparator-tree
// cost model for nearby design points. The silicon half (area,
// transistors, power) belongs to the authors' 0.5 µm implementation and
// is not modelled; see DESIGN.md §5.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
	"repro/internal/packet"
	"repro/internal/router"
	"repro/internal/sched"
)

func main() {
	leaves := flag.Int("leaves", 0, "also print the cost model for this leaf count")
	stages := flag.Int("stages", 2, "pipeline stages for the extra cost point")
	flag.Parse()

	cfg := router.DefaultConfig()
	fmt.Println("real-time router — modelled configuration (paper Table 4a)")
	fmt.Printf("  connections:               %d\n", cfg.Conns)
	fmt.Printf("  time-constrained packets:  %d x %d bytes\n", cfg.Slots, packet.TCBytes)
	fmt.Printf("  clock (sorting key):       %d (%d) bits\n", cfg.ClockBits, cfg.ClockBits+1)
	fmt.Printf("  comparator tree pipeline:  one selection per %d cycles\n", router.SchedPeriod)
	fmt.Printf("  flit input buffer:         %d bytes\n", router.FlitBufBytes)
	fmt.Printf("  memory chunk:              %d bytes/cycle\n", router.ChunkBytes)
	fmt.Printf("  ports:                     %d in + %d out (4 links, injection, reception)\n\n",
		router.NumPorts, router.NumPorts)

	res := experiments.RunChip()
	res.Table().Fprint(os.Stdout)
	res.SharedTable().Fprint(os.Stdout)
	res.ClockTable().Fprint(os.Stdout)

	if *leaves > 0 {
		if *stages < 1 {
			fmt.Fprintln(os.Stderr, "rtchip: stages must be positive")
			os.Exit(2)
		}
		c := sched.CostModel(*leaves, cfg.ClockBits, *stages)
		fmt.Printf("custom point: %d leaves → %d comparators, %d levels, %d rows/stage over %d stages\n",
			c.Leaves, c.Comparators, c.Levels, c.RowsPerStage, c.Stages)
	}
}
