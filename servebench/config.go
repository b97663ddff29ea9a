package main

import "fmt"

// kind is the server topology a workload runs against.
type kind int

const (
	// kindDirect is one in-memory replica reached directly.
	kindDirect kind = iota
	// kindCluster is a coordinator in front of two durable replicas.
	kindCluster
	// kindStateless is one replica answering whole instances.
	kindStateless
)

// spec is one named traffic mix. The README gives the reasoning
// behind each choice; the numbers here are what a run uses.
type spec struct {
	name string
	kind kind

	// Session workloads: each session holds an arena stream of tenant
	// arrivals and departures on a big.LITTLE platform of machines
	// machines. Offered residents (arrival rate × mean lifetime) are set
	// by residents; utilizations are uniform on [utilLo, utilHi].
	policy    string
	sessions  int
	machines  int
	residents int
	utilLo    float64
	utilHi    float64
	// updateShare is the probability that a stream event is followed by
	// a WCET update of a random resident.
	updateShare float64
	// forceMod retries a rejected admit with force when the tenant's
	// arrival number is 0 mod forceMod; 0 never forces.
	forceMod int

	// Stateless workload: distinct instances drawn with Zipf popularity,
	// a tester pool bounded below the instance count, and the share of
	// requests that are /v1/minalpha rather than /v1/test.
	instances     int
	nLo, nHi      int
	poolKeys      int
	minAlphaShare float64

	// rate is the fixed offered rate (ops/s across both workers).
	rate float64
}

// paperAlphas are the speed-augmentation factors the paper's theorems
// use: 1, 2, 1+√2, and the RMS factors 2.98 and 3.34.
var paperAlphas = []float64{1, 2, 2.414, 2.98, 3.34}

// workloads are the benchmark's named workloads. Their names are fixed:
// later changes cite them.
var workloads = []spec{
	{
		name: "arrival-direct", kind: kindDirect,
		policy: "first_fit_arrival", sessions: 2, machines: 64, residents: 1000,
		utilLo: 0.01, utilHi: 0.15, rate: 3000,
	},
	{
		name: "sorted-cluster-wal", kind: kindCluster,
		policy: "first_fit_sorted", sessions: 4, machines: 64, residents: 1080,
		utilLo: 0.01, utilHi: 0.2, updateShare: 0.25, forceMod: 25,
		rate: 1000,
	},
	{
		name: "stateless-test", kind: kindStateless,
		instances: 40, nLo: 100, nHi: 1000, poolKeys: 12, minAlphaShare: 0.1, rate: 250,
	},
}

func lookupWorkload(name string) (spec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return spec{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}
