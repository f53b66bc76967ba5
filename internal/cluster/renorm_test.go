package cluster_test

import (
	"testing"

	"dlion/internal/cluster"
	"dlion/internal/fault"
	"dlion/internal/testkit"
)

// TestChaosRenormalization runs testkit's fan-out gate over every worker's
// epoch log under crashes, restarts and a partition: with the roster as
// the one group view, every round goes to exactly the members the log
// names, so Eq. 7's divisor and the fan-out agree throughout.
func TestChaosRenormalization(t *testing.T) {
	for name, faults := range map[string]*fault.Schedule{
		"churn":     cluster.ChurnFaults(),
		"partition": cluster.PartitionFaults(),
		"crash": {CheckpointPeriod: 10,
			Crashes: []fault.Crash{{Worker: 1, At: 30}}}, // never returns
	} {
		cfg := cluster.ChaosConfig(cluster.ChaosSystem())
		cfg.Faults = faults
		res, err := cluster.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, log := range res.Membership {
			if err := testkit.CheckRenormalization(log, res.Iters[i], res.Stats[i].GradMsgsSent); err != nil {
				t.Errorf("%s, worker %d: %v", name, i, err)
			}
		}
	}
}
