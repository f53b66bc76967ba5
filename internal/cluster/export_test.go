package cluster

// The chaos fixtures, for the external tests (package cluster_test) that
// check runs with testkit, which imports this package.
var (
	ChaosConfig     = chaosConfig
	ChaosSystem     = chaosSystem
	ChurnFaults     = churnFaults
	PartitionFaults = partitionFaults
)
