package obs_test

import (
	"fmt"
	"os"

	"dlion/internal/obs"
)

// ExampleWorkerObs shows the per-worker phase clock: each phase
// accumulates the seconds charged to it, and a charge that is not positive
// is dropped.
func ExampleWorkerObs() {
	o := obs.NewWorkerObs()
	o.AddPhase(obs.PhaseCompute, 1.5)
	o.AddPhase(obs.PhaseCompute, 0.5)
	o.AddPhase(obs.PhaseRecvWait, 0.25)
	o.AddPhase(obs.PhaseRecvWait, -1)

	fmt.Printf("compute %.2fs, recv-wait %.2fs\n",
		o.PhaseSeconds(obs.PhaseCompute), o.PhaseSeconds(obs.PhaseRecvWait))
	// Output:
	// compute 2.00s, recv-wait 0.25s
}

// ExampleRegistry shows named process-wide counters and gauges. A nil
// registry would hand out nil handles, turning the same calls into no-ops
// — which is how subsystems run uninstrumented by default.
func ExampleRegistry() {
	reg := obs.NewRegistry()
	reg.Counter("queue.pushed").Add(3)
	reg.Counter("queue.pushed").Inc()
	reg.Gauge("queue.list_depth").Set(7)
	reg.Gauge("queue.list_depth").Set(2)

	snap := reg.Snapshot()
	fmt.Println("pushed:", snap["queue.pushed"])
	fmt.Println("depth:", snap["queue.list_depth"], "max:", snap["queue.list_depth.max"])
	// Output:
	// pushed: 4
	// depth: 2 max: 7
}

// ExampleReport builds a minimal sim-run report and prints it in the
// BENCH_*.json schema documented in METRICS.md.
func ExampleReport() {
	r := obs.NewReport("sim-run", "demo")
	// One worker's record, as core.Worker.Report renders it.
	r.Workers = []obs.WorkerReport{{
		ID: 0, Iters: 2,
		Phases:    map[string]float64{"compute": 2, "send": 0.5},
		SentBytes: map[string]int64{"gradient": 8192},
		SentMsgs:  map[string]int64{"gradient": 2},
		RecvBytes: map[string]int64{"gradient": 8192},
		RecvMsgs:  map[string]int64{"gradient": 2},
	}}
	r.Summary = map[string]float64{"final_acc": 0.9}
	r.WriteJSON(os.Stdout)
	// Output:
	// {
	//   "schema": "dlion.bench.v1",
	//   "kind": "sim-run",
	//   "name": "demo",
	//   "workers": [
	//     {
	//       "id": 0,
	//       "iters": 2,
	//       "phases": {
	//         "compute": 2,
	//         "send": 0.5
	//       },
	//       "sent_bytes": {
	//         "gradient": 8192
	//       },
	//       "sent_msgs": {
	//         "gradient": 2
	//       },
	//       "recv_bytes": {
	//         "gradient": 8192
	//       },
	//       "recv_msgs": {
	//         "gradient": 2
	//       }
	//     }
	//   ],
	//   "summary": {
	//     "final_acc": 0.9
	//   }
	// }
}
