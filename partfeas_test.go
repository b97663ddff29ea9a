package partfeas

import (
	"context"
	"math"
	"testing"
)

func demoInstance() (TaskSet, Platform) {
	ts := TaskSet{
		{Name: "video", WCET: 9, Period: 30},
		{Name: "audio", WCET: 1, Period: 4},
		{Name: "net", WCET: 3, Period: 10},
		{Name: "ui", WCET: 2, Period: 12},
		{Name: "sensor", WCET: 1, Period: 20},
	}
	return ts, NewPlatform(1, 1, 4)
}

func TestPublicTestAndTheorems(t *testing.T) {
	ts, p := demoInstance()
	rep, err := Test(ts, p, EDF, 1)
	if err != nil || !rep.Accepted {
		t.Fatalf("Test: %+v (%v)", rep, err)
	}
	for _, thm := range Theorems {
		rep, err := TestTheorem(ts, p, thm)
		if err != nil || !rep.Accepted {
			t.Errorf("theorem %v: %+v (%v)", thm, rep, err)
		}
	}
}

func TestPublicScalings(t *testing.T) {
	ts, p := demoInstance()
	sigmaPart, err := PartitionedMinScaling(ts, p)
	if err != nil {
		t.Fatal(err)
	}
	sigmaLP, err := MigratoryMinScaling(ts, p)
	if err != nil {
		t.Fatal(err)
	}
	if sigmaLP > sigmaPart+1e-9 {
		t.Errorf("σ_LP %v > σ_part %v", sigmaLP, sigmaPart)
	}
	if sigmaPart > 1 {
		t.Errorf("demo instance should be partitioned-feasible, σ_part = %v", sigmaPart)
	}
}

func TestPublicSimulate(t *testing.T) {
	ts, p := demoInstance()
	rep, err := Test(ts, p, EDF, 1)
	if err != nil || !rep.Accepted {
		t.Fatal("demo must be accepted")
	}
	in := Instance{Tasks: ts, Platform: p, Scheduler: EDF}
	res, _, err := SimulateCtx(context.Background(), in, SimulateOptions{Assignment: rep.Partition.Assignment, Alpha: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalMisses != 0 {
		t.Errorf("accepted demo missed %d deadlines", res.TotalMisses)
	}
	if res.TotalJobs == 0 {
		t.Error("no jobs simulated")
	}
}

func TestAnalyze(t *testing.T) {
	ts, p := demoInstance()
	a, err := Analyze(ts, p)
	if err != nil {
		t.Fatal(err)
	}
	if !a.SigmaPartitionedExact {
		t.Error("tiny instance should solve exactly")
	}
	if a.SigmaMigratory > a.SigmaPartitioned+1e-9 {
		t.Errorf("σ_LP %v > σ_part %v", a.SigmaMigratory, a.SigmaPartitioned)
	}
	for i, thm := range Theorems {
		if !a.Reports[i].Accepted {
			t.Errorf("theorem %v rejected feasible demo", thm)
		}
	}
	if a.MinAlphaEDF <= 0 || a.MinAlphaRMS <= 0 {
		t.Errorf("min alphas: %v %v", a.MinAlphaEDF, a.MinAlphaRMS)
	}
	// Ratios within the proved bounds.
	if r := a.MinAlphaEDF / a.SigmaPartitioned; r > 2+1e-6 {
		t.Errorf("EDF ratio %v above 2", r)
	}
	if r := a.MinAlphaRMS / a.SigmaPartitioned; r > math.Sqrt2+1+1e-6 {
		t.Errorf("RMS ratio %v above 2.414", r)
	}
}

func TestAnalyzeValidates(t *testing.T) {
	if _, err := Analyze(TaskSet{}, NewPlatform(1)); err == nil {
		t.Error("empty task set should fail")
	}
	ts, _ := demoInstance()
	if _, err := Analyze(ts, Platform{}); err == nil {
		t.Error("empty platform should fail")
	}
}

func TestPublicSensitivity(t *testing.T) {
	ts, p := demoInstance()
	h, err := WCETHeadroom(ts, p, EDF, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range h {
		if v < 1 {
			t.Errorf("headroom[%d] = %v < 1 on an accepted set", i, v)
		}
	}
	c, ok, err := MaxWCET(ts, p, EDF, 1, 0)
	if err != nil || !ok || c < ts[0].WCET {
		t.Errorf("MaxWCET = %d %v (%v)", c, ok, err)
	}
}

func TestPublicMigratorySchedule(t *testing.T) {
	// The canonical unpartitionable instance.
	ts := TaskSet{
		{Name: "A", WCET: 2, Period: 3},
		{Name: "B", WCET: 2, Period: 3},
		{Name: "C", WCET: 2, Period: 3},
	}
	p := NewPlatform(1, 1)
	sched, ok, err := MigratorySchedule(ts, p)
	if err != nil || !ok {
		t.Fatalf("MigratorySchedule: %v (%v)", ok, err)
	}
	if sched.TotalDuration() > 1+1e-9 {
		t.Errorf("duration %v > 1", sched.TotalDuration())
	}
	// Infeasible even for migration.
	over := TaskSet{{WCET: 3, Period: 2}}
	_, ok, err = MigratorySchedule(over, p)
	if err != nil || ok {
		t.Errorf("overloaded instance: ok=%v err=%v", ok, err)
	}
}

func TestPublicConstrained(t *testing.T) {
	set := ConstrainedSet{
		{Name: "a", WCET: 2, Deadline: 4, Period: 10},
		{Name: "b", WCET: 3, Deadline: 6, Period: 12},
	}
	p := NewPlatform(1)
	ok, asg, err := TestConstrainedEDF(set, p, 1, 0)
	if err != nil || !ok || len(asg) != 2 {
		t.Errorf("EDF: %v %v (%v)", ok, asg, err)
	}
	ok, _, err = TestConstrainedDM(set, p, 1)
	if err != nil || !ok {
		t.Errorf("DM: %v (%v)", ok, err)
	}
}

func TestPublicArbitraryDeadlines(t *testing.T) {
	set := ConstrainedSet{{Name: "x", WCET: 3, Deadline: 6, Period: 4}}
	ok, err := FeasibleArbitraryEDF(set, 1)
	if err != nil || !ok {
		t.Errorf("EDF arbitrary: %v (%v)", ok, err)
	}
	ok, err = FeasibleArbitraryDM(set, 1)
	if err != nil || !ok {
		t.Errorf("DM arbitrary: %v (%v)", ok, err)
	}
}
