package env

import (
	"testing"

	"dlion/internal/simcompute"
	"dlion/internal/simnet"
)

func TestAllNamedEnvironmentsBuild(t *testing.T) {
	for _, name := range Names() {
		e, err := Get(name, 7)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if e.N != 6 || len(e.Computes) != 6 || e.Network.Size() != 6 {
			t.Fatalf("%s: wrong shape", name)
		}
		for i := 0; i < e.N; i++ {
			if cap := e.Computes[i].Capacity.At(0); cap <= 0 {
				t.Fatalf("%s: worker %d capacity %v", name, i, cap)
			}
			for j := 0; j < e.N; j++ {
				if i == j {
					continue
				}
				bw, err := e.Network.BandwidthAt(i, j, 0)
				if err != nil || bw <= 0 {
					t.Fatalf("%s: link %d->%d bw=%v err=%v", name, i, j, bw, err)
				}
			}
		}
	}
}

func TestGetNameNormalization(t *testing.T) {
	a, err := Get("Hetero SYS A", 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Get("heterosysa", 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Name != b.Name {
		t.Fatal("name normalization broken")
	}
	if _, err := Get("nope", 1); err == nil {
		t.Fatal("unknown env must error")
	}
}

func TestHeteroSysAShape(t *testing.T) {
	e, err := Get("Hetero SYS A", 1)
	if err != nil {
		t.Fatal(err)
	}
	wantCores := []float64{24, 24, 12, 12, 6, 6}
	wantBW := []float64{50, 50, 35, 35, 20, 20}
	for i := 0; i < 6; i++ {
		if got := e.Computes[i].Capacity.At(0); got != wantCores[i] {
			t.Fatalf("worker %d cores %v, want %v", i, got, wantCores[i])
		}
		bw, _ := e.Network.BandwidthAt(i, (i+1)%6, 0)
		if bw != wantBW[i] {
			t.Fatalf("worker %d egress %v, want %v", i, bw, wantBW[i])
		}
	}
}

func TestGPUEnvironments(t *testing.T) {
	c, err := Get("Homo C", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !c.GPU {
		t.Fatal("Homo C must be GPU")
	}
	if got := c.Computes[0].Capacity.At(0); got != 30 {
		t.Fatalf("p2.xlarge capacity %v, want 30", got)
	}
	sc, err := Get("Hetero SYS C", 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := sc.Computes[0].Capacity.At(0); got != 240 {
		t.Fatalf("p2.8xlarge capacity %v, want 240", got)
	}
	if got := sc.Computes[5].Capacity.At(0); got != 30 {
		t.Fatalf("p2.xlarge capacity %v, want 30", got)
	}
}

func TestDynamicPhases(t *testing.T) {
	e := Dynamic("A", 100, 1)
	// phase 1: Homo B (24 cores, 50 Mbps)
	if e.Computes[4].Capacity.At(50) != 24 {
		t.Fatal("phase 1 cores")
	}
	bw, _ := e.Network.BandwidthAt(4, 0, 50)
	if bw != 50 {
		t.Fatal("phase 1 bw")
	}
	// phase 2: Hetero SYS A (worker 4 has 6 cores, 20 Mbps)
	if e.Computes[4].Capacity.At(150) != 6 {
		t.Fatal("phase 2 cores")
	}
	bw, _ = e.Network.BandwidthAt(4, 0, 150)
	if bw != 20 {
		t.Fatal("phase 2 bw")
	}
	// phase 3: Hetero SYS B (worker 4 regains 50 Mbps, keeps 6 cores)
	bw, _ = e.Network.BandwidthAt(4, 0, 250)
	if bw != 50 {
		t.Fatal("phase 3 bw")
	}
	// variant B is the reverse: starts heterogeneous, ends homogeneous
	eb := Dynamic("B", 100, 1)
	if eb.Computes[4].Capacity.At(50) != 6 || eb.Computes[4].Capacity.At(250) != 24 {
		t.Fatal("variant B ordering")
	}
}

func TestTable2Consistency(t *testing.T) {
	if len(Table2) != 6 || len(Table2Regions) != 6 {
		t.Fatal("Table 2 must be 6x6")
	}
	e, err := Get("Table2 WAN", 1)
	if err != nil {
		t.Fatal(err)
	}
	bw, _ := e.Network.BandwidthAt(0, 3, 0) // Virginia -> Mumbai
	if bw != 53 {
		t.Fatalf("V->M = %v, want 53", bw)
	}
	bw, _ = e.Network.BandwidthAt(2, 4, 0) // Ireland -> Seoul
	if bw != 30 {
		t.Fatalf("I->S1 = %v, want 30", bw)
	}
}

func TestCustomEnv(t *testing.T) {
	caps := []simcompute.Schedule{simcompute.Constant(1), simcompute.Constant(2)}
	nw := simnet.Uniform(2, simcompute.Constant(10), 0)
	e := Custom("x", caps, nw, 1)
	if e.N != 2 || e.Computes[1].Capacity.At(0) != 2 || e.Network.Size() != 2 {
		t.Fatalf("custom env %+v", e)
	}
}
