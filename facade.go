package dlion

import (
	"dlion/internal/core"
	"dlion/internal/data"
	"dlion/internal/env"
	"dlion/internal/fault"
	"dlion/internal/nn"
	"dlion/internal/queue"
	"dlion/internal/realtime"
	"dlion/internal/serve"
	"dlion/internal/simcompute"
	"dlion/internal/simnet"
)

// Resource-model types re-exported for building custom environments.
type (
	// Schedule is a piecewise-constant function of virtual time, used for
	// both compute capacity (cores) and link bandwidth (Mbps).
	Schedule = simcompute.Schedule
	// Network is a mesh of directed links with time-varying bandwidth.
	Network = simnet.Network
	// Link is one directed connection.
	Link = simnet.Link
)

// Fault-injection types re-exported for chaos experiments (DESIGN.md §7).
// Attach a FaultSchedule to ExperimentConfig.Faults; Result.Faults reports
// the injector's counters after the run.
type (
	// FaultSchedule declares worker crashes, joins, leaves, link
	// partitions, loss, delay and corruption against virtual time.
	FaultSchedule = fault.Schedule
	// FaultWindow is a half-open [Start, End) activity window; End = 0
	// means "until the run ends".
	FaultWindow = fault.Window
	// FaultCrash stops a worker at At; RestartAfter > 0 restarts it from
	// the newest checkpoint and rejoins it to the cluster.
	FaultCrash = fault.Crash
	// FaultPartition drops messages on matching links during its window.
	FaultPartition = fault.Partition
	// FaultLoss drops a random fraction of messages on matching links.
	FaultLoss = fault.Loss
	// FaultDelay adds latency on matching links.
	FaultDelay = fault.Delay
	// FaultCorrupt corrupts (and thus drops) a random message fraction.
	FaultCorrupt = fault.Corrupt
	// FaultStats are the injector's counters, reported on Result.Faults.
	FaultStats = fault.Stats
)

// FaultAny wildcards a fault rule's endpoint to match every worker.
const FaultAny = fault.Any

// ConstantSchedule returns a schedule that always yields v.
func ConstantSchedule(v float64) Schedule { return simcompute.Constant(v) }

// StepSchedule builds a schedule from (time, value) pairs, e.g.
// StepSchedule(0, 24, 500, 12) is 24 until t=500 and 12 afterwards.
func StepSchedule(pairs ...float64) Schedule { return simcompute.Steps(pairs...) }

// UniformNetwork builds a full mesh where every link shares one bandwidth
// schedule and RTT.
func UniformNetwork(n int, bandwidth Schedule, rttSeconds float64) *Network {
	return simnet.Uniform(n, bandwidth, rttSeconds)
}

// EgressNetwork builds a full mesh where all links leaving worker i share
// schedule i — the shape of the paper's Table 3 network rows.
func EgressNetwork(schedules []Schedule, rttSeconds float64) *Network {
	return simnet.PerWorkerEgress(schedules, rttSeconds)
}

// MatrixNetwork builds a network from an explicit Mbps matrix, like the
// paper's Table 2 AWS measurements.
func MatrixNetwork(mbps [][]float64, rttSeconds float64) *Network {
	return simnet.FromMatrix(mbps, rttSeconds)
}

// AWSTable2 returns the paper's measured AWS inter-region bandwidth matrix
// (Mbps) and the region names.
func AWSTable2() (matrix [][]float64, regions []string) {
	m := make([][]float64, len(env.Table2))
	for i, row := range env.Table2 {
		m[i] = append([]float64(nil), row...)
	}
	return m, append([]string(nil), env.Table2Regions...)
}

// CustomEnvironment assembles an environment from per-worker capacity
// schedules (in CPU-core units) and a network.
func CustomEnvironment(name string, capacities []Schedule, nw *Network, seed uint64) *Environment {
	return env.Custom(name, capacities, nw, seed)
}

// DynamicEnvironment builds the Table 3 dynamic environments ("A" or "B")
// with a configurable phase length.
func DynamicEnvironment(variant string, phaseSeconds float64, seed uint64) *Environment {
	return env.Dynamic(variant, phaseSeconds, seed)
}

// Network timing constants from the paper's emulation.
const (
	LANMbps    = env.LANMbps
	LANLatency = env.RTTLan
	WANLatency = env.RTTWan
)

// Real-mode types: run workers over wall-clock time and a real message
// broker instead of the simulator.
type (
	// Broker is the in-memory Redis-substitute message broker.
	Broker = queue.Broker
	// BrokerServer exposes a Broker over TCP.
	BrokerServer = queue.Server
	// RealGroup runs real-mode workers as one unit, owning their transports.
	RealGroup = realtime.Group
	// RealNodeConfig assembles one worker of a RealGroup.
	RealNodeConfig = realtime.Config
	// Worker is the DLion worker a RealGroup's Inspect hands to its closure.
	Worker = core.Worker
	// Transport moves encoded messages between real-mode workers.
	Transport = realtime.Transport
)

// NewBroker returns an empty message broker.
func NewBroker() *Broker { return queue.NewBroker() }

// ServeBroker exposes a broker over TCP (addr like "127.0.0.1:0").
func ServeBroker(b *Broker, addr string) (*BrokerServer, error) {
	return queue.Serve(b, addr)
}

// NewBrokerTransport connects a real-mode worker to an in-process broker.
func NewBrokerTransport(b *Broker, workerID int) Transport {
	return realtime.NewBrokerTransport(b, workerID, "")
}

// NewTCPTransport connects a real-mode worker to a TCP broker.
func NewTCPTransport(addr string, workerID int) (Transport, error) {
	return realtime.NewClientTransport(addr, workerID)
}

// NewRealGroup builds worker i of n from build(i); the group owns the transports.
func NewRealGroup(n int, build func(int) (RealNodeConfig, error)) (*RealGroup, error) {
	return realtime.NewGroup(n, build, 0)
}

// GenerateData builds the train/test datasets for a DataConfig.
func GenerateData(cfg DataConfig) (train, test *Dataset, err error) {
	return dataGenerate(cfg)
}

// DataGenerator produces fresh samples over time — the continuously
// generated edge data the paper's introduction motivates.
type DataGenerator = data.Generator

// NewDataGenerator builds a generator plus the initial train/test sets.
func NewDataGenerator(cfg DataConfig) (*DataGenerator, *Dataset, *Dataset, error) {
	return data.NewGenerator(cfg)
}

// GrowShards appends freshly generated samples to the shared dataset and
// distributes them across the workers' shards round-robin.
func GrowShards(ds *Dataset, chunk *Dataset, shards []*Shard) error {
	return data.GrowEvenly(ds, chunk, shards)
}

// Model is a neural network with named weight variables (a worker's
// replica). Exposed for checkpoint/resume workflows.
type Model = nn.Model

// Serving types: the inference side of the train-near-data loop. A
// ServeRegistry holds hot-swappable model versions; a serve HTTP server
// answers /predict with dynamic micro-batching (DESIGN.md §8).
type (
	// ServeRegistry is a hot-swappable model version store.
	ServeRegistry = serve.Registry
	// ServeConfig assembles one inference server.
	ServeConfig = serve.Config
	// ServeServer is the HTTP inference handler (micro-batching /predict).
	ServeServer = serve.Server
	// ServeHTTPServer binds a ServeServer to a TCP listener.
	ServeHTTPServer = serve.HTTPServer
)

// ServeWeightsChannel is the broker PUB/SUB channel carrying weight
// broadcasts from training workers to inference servers.
const ServeWeightsChannel = serve.WeightsChannel

// NewServeRegistry returns an empty model registry for the given spec.
func NewServeRegistry(spec ModelSpec) *ServeRegistry { return serve.NewRegistry(spec) }

// ListenAndServeModels starts an inference server on addr (use port 0 for
// an ephemeral port; the returned server reports its URL).
func ListenAndServeModels(cfg ServeConfig, addr string) (*ServeHTTPServer, error) {
	return serve.Listen(cfg, addr)
}

// EncodeWeightsUpdate frames a checkpoint for ServeWeightsChannel; seq is
// the training iteration, which orders hot-swaps at the receivers.
func EncodeWeightsUpdate(seq int64, ckpt []byte) []byte {
	frame, _ := serve.EncodeUpdateManifest(seq, nil, ckpt) // only a manifest can fail to encode
	return frame
}
