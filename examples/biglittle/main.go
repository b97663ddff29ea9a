// big.LITTLE: the scenario the paper's introduction motivates — a chip
// with a few fast cores and many slow, power-efficient ones. This example
// sizes the speed augmentation needed as load grows, and shows where the
// feasibility test starts relying on the big cores.
//
//	go run ./examples/biglittle
package main

import (
	"context"
	"fmt"
	"log"

	"partfeas"
	"partfeas/internal/workload"
)

func main() {
	// 2 big cores (speed 4) + 6 little cores (speed 1): total speed 14.
	platform := partfeas.NewPlatform(4, 4, 1, 1, 1, 1, 1, 1)
	fmt.Printf("platform: 2 big (s=4) + 6 little (s=1), total speed %.0f\n\n", platform.TotalSpeed())

	rng := workload.NewRNG(2016)

	fmt.Println("load sweep (24 UUniFast tasks, averages over 50 draws):")
	fmt.Printf("%8s  %12s  %12s  %12s\n", "U/Σs", "FF-EDF@1", "min α (EDF)", "σ_LP")
	for _, load := range []float64{0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0} {
		const draws = 50
		accepted := 0
		var sumAlpha, sumSigma float64
		for d := 0; d < draws; d++ {
			us, err := workload.UUniFast(rng, 24, load*platform.TotalSpeed())
			if err != nil {
				log.Fatal(err)
			}
			tasks, err := workload.TasksFromUtilizations(us, nil, 1000)
			if err != nil {
				log.Fatal(err)
			}
			rep, err := partfeas.Test(tasks, platform, partfeas.EDF, 1)
			if err != nil {
				log.Fatal(err)
			}
			if rep.Accepted {
				accepted++
			}
			sigma, err := partfeas.MigratoryMinScaling(tasks, platform)
			if err != nil {
				log.Fatal(err)
			}
			alpha, ok, err := partfeas.MinAlpha(tasks, platform, partfeas.EDF,
				sigma/2, 2.98*sigma*(1+1e-6), 1e-6)
			if err != nil {
				log.Fatal(err)
			}
			if !ok {
				log.Fatalf("no accepting α below the theorem ceiling — should be impossible")
			}
			sumAlpha += alpha
			sumSigma += sigma
		}
		fmt.Printf("%8.2f  %11.0f%%  %12.4f  %12.4f\n",
			load, 100*float64(accepted)/draws, sumAlpha/draws, sumSigma/draws)
	}

	// One concrete heavy workload: tasks too big for little cores must
	// land on the big cluster.
	fmt.Println("\nconcrete heavy mix (tasks with w > 1 cannot run on a little core):")
	tasks := partfeas.TaskSet{
		{Name: "vision-pipeline", WCET: 33, Period: 10}, // w = 3.3: big core only
		{Name: "planner", WCET: 24, Period: 20},         // w = 1.2: big core only
		{Name: "control-loop", WCET: 3, Period: 4},      // w = 0.75
		{Name: "telemetry", WCET: 1, Period: 2},         // w = 0.5
		{Name: "health-monitor", WCET: 1, Period: 5},    // w = 0.2
		{Name: "radio", WCET: 2, Period: 8},             // w = 0.25
		{Name: "storage-flush", WCET: 3, Period: 25},    // w = 0.12
		{Name: "watchdog", WCET: 1, Period: 50},         // w = 0.02
	}
	rep, err := partfeas.Test(tasks, platform, partfeas.EDF, 1)
	if err != nil {
		log.Fatal(err)
	}
	if !rep.Accepted {
		log.Fatalf("expected acceptance; failing task %v", tasks[rep.Partition.FailedTask])
	}
	for j := range platform {
		kind := "little"
		if platform[j].Speed == 4 {
			kind = "BIG"
		}
		fmt.Printf("  %s %-6s load %.2f/%.0f:", platform[j].Name, kind, rep.Partition.Loads[j], platform[j].Speed)
		for i, mj := range rep.Partition.Assignment {
			if mj == j {
				fmt.Printf(" %s", tasks[i].Name)
			}
		}
		fmt.Println()
	}

	in := partfeas.Instance{Tasks: tasks, Platform: platform, Scheduler: partfeas.EDF}
	sim, _, err := partfeas.SimulateCtx(context.Background(), in,
		partfeas.SimulateOptions{Assignment: rep.Partition.Assignment, Alpha: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nhyperperiod simulation: %d jobs, %d misses\n", sim.TotalJobs, sim.TotalMisses)
}
