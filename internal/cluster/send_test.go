package cluster

import (
	"testing"

	"dlion/internal/core"
	"dlion/internal/data"
	"dlion/internal/fault"
	"dlion/internal/simclock"
	"dlion/internal/simcompute"
	"dlion/internal/simnet"
	"dlion/internal/systems"
	"dlion/internal/wire"
)

// The Send tests pin the transfer model every simulated figure runs on
// (simEnv.Send). A dead link drops its traffic
// (TestZeroBandwidthActsAsPartition).
const (
	sendRTT = 0.004
	sendBW  = 0.002 // Mbps: a 25-byte loss report serializes in 0.1 s
)

func sendMsg(from, to int) *wire.Message {
	return &wire.Message{Type: wire.TypeLossReport, From: int32(from), To: int32(to), Loss: 1}
}

// sendSer is the egress serialization time of one sendMsg at bw Mbps.
func sendSer(bw float64) float64 {
	return float64(sendMsg(0, 1).WireBytes()) * 8 / (bw * 1e6)
}

// arrivals runs env's engine dry and returns the virtual time of each event.
func arrivals(env *simEnv) []float64 {
	var at []float64
	for env.eng.Step() {
		at = append(at, env.eng.Now())
	}
	return at
}

func checkArrivals(t *testing.T, name string, got []float64, want ...float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d deliveries at %v, want %d", name, len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: delivery %d at %v, want %v", name, i, got[i], want[i])
		}
	}
}

// TestSendChargesEgressAndHalfRTT: a message is serialized on its sender's
// egress at the link's bandwidth and arrives half an RTT later; messages
// from one sender queue on that egress whichever peer they go to, while
// another sender's do not wait for them.
func TestSendChargesEgressAndHalfRTT(t *testing.T) {
	env := sendEnv(t, simnet.Uniform(3, simcompute.Constant(sendBW), sendRTT))
	env.Send(0, 1, sendMsg(0, 1))
	checkArrivals(t, "one message", arrivals(env), sendSer(sendBW)+sendRTT/2)
	if want := sendMsg(0, 1).WireBytes(); env.sentBytes != int64(want) {
		t.Fatalf("delivered %d bytes, want %d", env.sentBytes, want)
	}

	env = sendEnv(t, simnet.Uniform(3, simcompute.Constant(sendBW), sendRTT))
	env.Send(0, 1, sendMsg(0, 1))
	env.Send(0, 2, sendMsg(0, 2))
	env.Send(1, 0, sendMsg(1, 0))
	ser := sendSer(sendBW)
	checkArrivals(t, "shared egress", arrivals(env), ser+sendRTT/2, ser+sendRTT/2, ser+ser+sendRTT/2)
}

// TestSendSamplesSteppedBandwidth: a link's bandwidth is sampled when the
// message starts on the egress, not when it was sent. The bandwidth doubles
// while the first message is on the egress: the second, sent at the same
// instant, serializes at the doubled rate.
func TestSendSamplesSteppedBandwidth(t *testing.T) {
	ser := sendSer(sendBW)
	env := sendEnv(t, simnet.Uniform(3, simcompute.Steps(0, sendBW, ser/2, 2*sendBW), sendRTT))
	env.Send(0, 1, sendMsg(0, 1))
	env.Send(0, 2, sendMsg(0, 2))
	checkArrivals(t, "stepped schedule", arrivals(env), ser+sendRTT/2, ser+sendSer(2*sendBW)+sendRTT/2)
}

// TestSendKeepsStartBandwidthOnSingleTickLink drives a link that is alive
// for one millisecond of virtual time. A message sent before the tick is
// dropped without spending egress; one that starts inside it keeps the
// burst bandwidth although the window closes mid-transfer; and one queued
// behind it starts after the window and is dropped.
func TestSendKeepsStartBandwidthOnSingleTickLink(t *testing.T) {
	env := sendEnv(t, simnet.Uniform(3, simcompute.Steps(0, 0, 5, sendBW, 5.001, 0), sendRTT))
	advance := func(at float64) {
		env.eng.At(at, func() {})
		env.eng.Step()
	}

	advance(4)
	env.Send(0, 1, sendMsg(0, 1))
	if env.eng.Step() || env.egress[0] != 0 {
		t.Fatalf("send on a dead link scheduled an event or took egress (busy until %v)", env.egress[0])
	}

	advance(5.0005)
	env.Send(0, 1, sendMsg(0, 1))
	env.Send(0, 2, sendMsg(0, 2))
	checkArrivals(t, "single tick", arrivals(env), 5.0005+sendSer(sendBW)+sendRTT/2)
	if want := sendMsg(0, 1).WireBytes(); env.sentBytes != int64(want) {
		t.Fatalf("delivered %d bytes, want %d", env.sentBytes, want)
	}
}

// sendEnv is a simEnv over nw with idle Baseline workers to deliver to, on
// identical replicas.
func sendEnv(t *testing.T, nw *simnet.Network) *simEnv {
	t.Helper()
	cfg := tinyConfig(systems.Baseline())
	cfg.N = nw.Size()
	train, _, err := data.Generate(cfg.Data)
	if err != nil {
		t.Fatal(err)
	}
	shards, err := data.Partition(train, cfg.N, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	env := &simEnv{eng: simclock.New(), net: nw, computes: cfg.Computes[:cfg.N],
		inj: fault.NewInjector(nil), egress: make([]float64, cfg.N), wireScale: 1}
	models := cfg.Model.Replicas(cfg.N)
	env.workers = make([]*core.Worker, cfg.N)
	for i := range env.workers {
		if env.workers[i], err = core.New(i, cfg.System, models[i], shards[i], env); err != nil {
			t.Fatal(err)
		}
	}
	return env
}
