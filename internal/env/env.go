// Package env encodes the paper's evaluation environments: the Table 2 AWS
// inter-region bandwidth matrix and the eleven Table 3 micro-cloud
// emulations (homogeneous/heterogeneous compute and network, CPU and GPU
// clusters, and the two dynamic schedules). Compute capacity is expressed
// in CPU-core units (a GPU is simcompute.GPUUnit cores); bandwidth in Mbps.
package env

import (
	"fmt"
	"strings"

	"dlion/internal/simcompute"
	"dlion/internal/simnet"
)

// Table2Regions names the six AWS regions of Table 2.
var Table2Regions = []string{"Virginia", "Oregon", "Ireland", "Mumbai", "Seoul", "Sydney"}

// Table2 is the measured inter-region bandwidth matrix in Mbps
// (row = source, column = destination; diagonal unused).
var Table2 = [][]float64{
	{0, 190, 181, 53, 58, 56},
	{187, 0, 91, 41, 93, 84},
	{171, 92, 0, 73, 30, 41},
	{53, 41, 73, 0, 85, 79},
	{58, 88, 40, 85, 0, 79},
	{56, 84, 36, 79, 72, 0},
}

// Network timing constants.
const (
	LANMbps = 1000.0
	RTTLan  = 0.001
	RTTWan  = 0.05
)

// cost returns every environment's cost model, CPU and GPU alike. The
// absolute values are calibrated so that the paper's regimes hold in
// simulation (see DESIGN.md): on the CPU cluster a 24-core worker takes
// ~2.7 virtual seconds for a 32-sample iteration, so full 5 MB gradient
// exchange saturates WAN links but not the LAN. GPU speed comes from
// capacity units (one GPU = simcompute.GPUUnit cores' worth), which keeps
// wall-clock cost per simulated sample uniform while preserving the
// paper's regime where GPU compute far outpaces the network: even the LAN
// becomes the bottleneck for MobileNet's 17 MB exchanges.
func cost() simcompute.CostModel {
	return simcompute.CostModel{Overhead: 0.05, PerSample: 2.0, Jitter: 0.03}
}

// Env is a fully instantiated micro-cloud environment.
type Env struct {
	Name     string
	N        int
	Computes []simcompute.Compute
	Network  *simnet.Network
	GPU      bool // GPU cluster (use MobileNetLite; Figure 12)
}

// coresEnv builds computes from constant per-worker core counts.
func coresEnv(seed uint64, cores ...float64) []simcompute.Compute {
	out := make([]simcompute.Compute, len(cores))
	for i, c := range cores {
		out[i] = simcompute.New(simcompute.Constant(c), cost(), seed+uint64(i))
	}
	return out
}

// schedEnv builds computes from explicit per-worker capacity schedules.
func schedEnv(seed uint64, scheds []simcompute.Schedule) []simcompute.Compute {
	out := make([]simcompute.Compute, len(scheds))
	for i, s := range scheds {
		out[i] = simcompute.New(s, cost(), seed+uint64(i))
	}
	return out
}

// egressNet builds a per-worker-egress WAN from Mbps figures.
func egressNet(mbps ...float64) *simnet.Network {
	scheds := make([]simcompute.Schedule, len(mbps))
	for i, m := range mbps {
		scheds[i] = simcompute.Constant(m)
	}
	return simnet.PerWorkerEgress(scheds, RTTWan)
}

// Names lists every defined environment in Table 3 order.
func Names() []string {
	return []string{
		"Homo A", "Homo B", "Homo C",
		"Hetero CPU A", "Hetero CPU B",
		"Hetero NET A", "Hetero NET B",
		"Hetero SYS A", "Hetero SYS B", "Hetero SYS C",
		"Dynamic SYS A", "Dynamic SYS B",
		"Table2 WAN",
	}
}

// Get instantiates a Table 3 environment by name (case- and
// space-insensitive, e.g. "heterosysa"). seed + i is worker i's compute
// jitter seed.
func Get(name string, seed uint64) (*Env, error) {
	canon := strings.ToLower(strings.ReplaceAll(name, " ", ""))
	hetCores := []float64{24, 24, 12, 12, 6, 6}
	hetNetA := []float64{50, 50, 35, 35, 20, 20}
	hetNetB := []float64{20, 20, 35, 35, 50, 50}
	switch canon {
	case "homoa":
		return &Env{Name: "Homo A", N: 6,
			Computes: coresEnv(seed, 24, 24, 24, 24, 24, 24),
			Network:  simnet.Uniform(6, simcompute.Constant(LANMbps), RTTLan)}, nil
	case "homob":
		return &Env{Name: "Homo B", N: 6,
			Computes: coresEnv(seed, 24, 24, 24, 24, 24, 24),
			Network:  egressNet(50, 50, 50, 50, 50, 50)}, nil
	case "homoc":
		g := simcompute.GPUUnit
		return &Env{Name: "Homo C", N: 6, GPU: true,
			Computes: coresEnv(seed, g, g, g, g, g, g),
			Network:  simnet.Uniform(6, simcompute.Constant(LANMbps), RTTLan)}, nil
	case "heterocpua":
		return &Env{Name: "Hetero CPU A", N: 6,
			Computes: coresEnv(seed, hetCores...),
			Network:  simnet.Uniform(6, simcompute.Constant(LANMbps), RTTLan)}, nil
	case "heterocpub":
		return &Env{Name: "Hetero CPU B", N: 6,
			Computes: coresEnv(seed, 24, 24, 24, 24, 24, 4),
			Network:  simnet.Uniform(6, simcompute.Constant(LANMbps), RTTLan)}, nil
	case "heteroneta":
		return &Env{Name: "Hetero NET A", N: 6,
			Computes: coresEnv(seed, 24, 24, 24, 24, 24, 24),
			Network:  egressNet(hetNetA...)}, nil
	case "heteronetb":
		// Used by the Figure 17 deviation study: the inverse skew of NET A.
		return &Env{Name: "Hetero NET B", N: 6,
			Computes: coresEnv(seed, 24, 24, 24, 24, 24, 24),
			Network:  egressNet(hetNetB...)}, nil
	case "heterosysa":
		return &Env{Name: "Hetero SYS A", N: 6,
			Computes: coresEnv(seed, hetCores...),
			Network:  egressNet(hetNetA...)}, nil
	case "heterosysb":
		return &Env{Name: "Hetero SYS B", N: 6,
			Computes: coresEnv(seed, hetCores...),
			Network:  egressNet(hetNetB...)}, nil
	case "heterosysc":
		g := simcompute.GPUUnit
		return &Env{Name: "Hetero SYS C", N: 6, GPU: true,
			Computes: coresEnv(seed, 8*g, 8*g, g, g, g, g),
			Network:  egressNet(190, 190, 140, 140, 100, 100)}, nil
	case "dynamicsysa":
		return Dynamic("A", 500, seed), nil
	case "dynamicsysb":
		return Dynamic("B", 500, seed), nil
	case "table2wan":
		return &Env{Name: "Table2 WAN", N: 6,
			Computes: coresEnv(seed, 24, 24, 24, 24, 24, 24),
			Network:  simnet.FromMatrix(Table2, RTTWan)}, nil
	}
	return nil, fmt.Errorf("env: unknown environment %q", name)
}

// Dynamic builds the Table 3 dynamic environments with a configurable
// phase length (the paper uses 500 s per phase; scaled experiments shrink
// it proportionally to their horizon). Variant "A" runs
// Homo B -> Hetero SYS A -> Hetero SYS B (more resources early);
// variant "B" runs the reverse order (more resources late).
func Dynamic(variant string, phaseLen float64, seed uint64) *Env {
	hetCores := []float64{24, 24, 12, 12, 6, 6}
	hetNetA := []float64{50, 50, 35, 35, 20, 20}
	hetNetB := []float64{20, 20, 35, 35, 50, 50}
	comp := make([]simcompute.Schedule, 6)
	net := make([]simcompute.Schedule, 6)
	for i := 0; i < 6; i++ {
		switch variant {
		case "A":
			comp[i] = simcompute.Steps(0, 24, phaseLen, hetCores[i], 2*phaseLen, hetCores[i])
			net[i] = simcompute.Steps(0, 50, phaseLen, hetNetA[i], 2*phaseLen, hetNetB[i])
		default: // "B"
			comp[i] = simcompute.Steps(0, hetCores[i], phaseLen, hetCores[i], 2*phaseLen, 24)
			net[i] = simcompute.Steps(0, hetNetB[i], phaseLen, hetNetA[i], 2*phaseLen, 50)
		}
	}
	return &Env{Name: "Dynamic SYS " + variant, N: 6,
		Computes: schedEnv(seed, comp),
		Network:  simnet.PerWorkerEgress(net, RTTWan)}
}

// Custom builds an environment from explicit per-worker capacity schedules
// and an arbitrary network (used by the Figure 8/19/20 trace experiments).
func Custom(name string, capacities []simcompute.Schedule, network *simnet.Network, seed uint64) *Env {
	return &Env{Name: name, N: len(capacities),
		Computes: schedEnv(seed, capacities),
		Network:  network}
}
