package core

import "testing"

func TestGBSFixed(t *testing.T) {
	g := newGBSController(GBSConfig{Mode: "fixed"}, 192)
	for _, tt := range []float64{0, 100, 1e6} {
		if got := g.GBSAt(tt, 0); got != 192 {
			t.Fatalf("fixed GBS at %v = %d", tt, got)
		}
	}
}

func TestGBSScheduleDoublesOnce(t *testing.T) {
	g := newGBSController(GBSConfig{Mode: "schedule", DoubleAtEpoch: 2}, 100)
	if got := g.GBSAt(0, 0); got != 100 {
		t.Fatalf("before epoch: %d", got)
	}
	if got := g.GBSAt(10, 1.9); got != 100 {
		t.Fatalf("epoch 1.9: %d", got)
	}
	if got := g.GBSAt(20, 2.0); got != 200 {
		t.Fatalf("epoch 2: %d", got)
	}
	if got := g.GBSAt(30, 7.0); got != 200 {
		t.Fatalf("must double only once: %d", got)
	}
}

func TestGBSAutoWarmupArithmetic(t *testing.T) {
	cfg := GBSConfig{Mode: "auto", WarmupAdd: 50, AdjustPeriod: 100,
		WarmupDuration: 1000, TrainSetSize: 100000} // warm-up cap 1000, speed-up cap 10000
	g := newGBSController(cfg, 100)
	if got := g.GBSAt(50, 0); got != 100 {
		t.Fatalf("t=50: %d", got)
	}
	if got := g.GBSAt(100, 0); got != 150 {
		t.Fatalf("t=100: %d", got)
	}
	if got := g.GBSAt(350, 0); got != 250 {
		t.Fatalf("t=350: %d", got)
	}
}

func TestGBSAutoWarmupCap(t *testing.T) {
	cfg := GBSConfig{Mode: "auto", WarmupAdd: 500, AdjustPeriod: 100,
		WarmupDuration: 10000, TrainSetSize: 100000} // cap 1000
	g := newGBSController(cfg, 600)
	// 600+500=1100 > 1000 cap: hold at 600 throughout warm-up
	if got := g.GBSAt(500, 0); got != 600 {
		t.Fatalf("capped warm-up: %d", got)
	}
}

func TestGBSAutoSpeedupGeometricAndCap(t *testing.T) {
	cfg := GBSConfig{Mode: "auto", WarmupAdd: 100, AdjustPeriod: 100,
		WarmupDuration: 100, TrainSetSize: 10000} // warm-up cap 100, speed-up cap 1000
	g := newGBSController(cfg, 100)
	// t=100: speed-up begins (warmup duration over): 100*2=200
	if got := g.GBSAt(100, 0); got != 200 {
		t.Fatalf("t=100: %d", got)
	}
	if got := g.GBSAt(200, 0); got != 400 {
		t.Fatalf("t=200: %d", got)
	}
	if got := g.GBSAt(300, 0); got != 800 {
		t.Fatalf("t=300: %d", got)
	}
	// 800*2 = 1600 > 1000: frozen at 800 forever
	if got := g.GBSAt(10000, 0); got != 800 {
		t.Fatalf("frozen: %d", got)
	}
}

func TestGBSAutoMonotone(t *testing.T) {
	cfg := GBSConfig{Mode: "auto", WarmupAdd: 32, AdjustPeriod: 50,
		WarmupDuration: 300, TrainSetSize: 60000}
	g := newGBSController(cfg, 192)
	prev := 0
	for tt := 0.0; tt < 3000; tt += 25 {
		got := g.GBSAt(tt, 0)
		if got < prev {
			t.Fatalf("GBS decreased at t=%v: %d < %d", tt, got, prev)
		}
		prev = got
	}
	if prev <= 192 {
		t.Fatalf("GBS never grew: %d", prev)
	}
	if prev > 6000 {
		t.Fatalf("GBS exceeded 10%% cap: %d", prev)
	}
}
