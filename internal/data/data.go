// Package data provides procedurally generated image-classification
// datasets substituting for CIFAR10 and ImageNet-100 in the DLion
// evaluation, plus the sharding and minibatch sampling machinery workers
// use.
//
// Substitution rationale (see DESIGN.md): DLion's techniques act on
// gradient statistics, data volume, and convergence dynamics — not on image
// semantics. Each class is a smooth random template (a mixture of random 2-D
// Gaussian bumps); samples are the template plus spatial jitter and pixel
// noise. A small CNN learns this task the same way it learns
// CIFAR10/MNIST: accuracy climbs quickly at first and saturates, which is
// the regime all of the paper's figures live in.
package data

import (
	"fmt"
	"math"

	"dlion/internal/stats"
	"dlion/internal/tensor"
)

// Dataset is an in-memory labeled image dataset. Images are stored in one
// flat slab, row-major (sample, channel, y, x).
type Dataset struct {
	Name       string
	NumClasses int
	Channels   int
	Height     int
	Width      int

	images []float32 // len = N * Channels*Height*Width
	labels []int32
}

// SampleSize returns the number of float32 values per image.
func (d *Dataset) SampleSize() int { return d.Channels * d.Height * d.Width }

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.labels) }

// Label returns the class of sample i.
func (d *Dataset) Label(i int) int { return int(d.labels[i]) }

// Image returns the raw pixels of sample i (a view, not a copy).
func (d *Dataset) Image(i int) []float32 {
	sz := d.SampleSize()
	return d.images[i*sz : (i+1)*sz]
}

// Head returns a view dataset containing the first n samples (or all of
// them if n exceeds the size). The underlying storage is shared. Datasets
// are pre-shuffled at generation, so a head slice is class-balanced; the
// harness uses it for cheap periodic evaluation.
func (d *Dataset) Head(n int) *Dataset {
	if n <= 0 || n >= d.Len() {
		return d
	}
	sz := d.SampleSize()
	return &Dataset{Name: d.Name, NumClasses: d.NumClasses, Channels: d.Channels,
		Height: d.Height, Width: d.Width,
		images: d.images[:n*sz], labels: d.labels[:n]}
}

// Batch gathers the samples at idx into a (len(idx), C, H, W) tensor and a
// label slice. The tensor is freshly allocated.
func (d *Dataset) Batch(idx []int) (*tensor.Tensor, []int) {
	sz := d.SampleSize()
	x := tensor.New(len(idx), d.Channels, d.Height, d.Width)
	y := make([]int, len(idx))
	for bi, i := range idx {
		copy(x.Data[bi*sz:(bi+1)*sz], d.Image(i))
		y[bi] = d.Label(i)
	}
	return x, y
}

// Config describes a synthetic dataset to generate.
type Config struct {
	Name       string
	NumClasses int
	Train      int // number of training samples
	Test       int // number of test samples
	Channels   int
	Height     int
	Width      int
	Noise      float64 // pixel noise stddev
	Jitter     int     // max spatial shift in pixels
	Bumps      int     // Gaussian bumps per class template
	Seed       uint64
}

// Validate reports whether the config is usable.
func (c Config) Validate() error {
	switch {
	case c.NumClasses < 2:
		return fmt.Errorf("data: need >=2 classes, got %d", c.NumClasses)
	case c.Train < c.NumClasses || c.Test < 1:
		return fmt.Errorf("data: train=%d test=%d too small", c.Train, c.Test)
	case c.Channels < 1 || c.Height < 4 || c.Width < 4:
		return fmt.Errorf("data: bad image dims %dx%dx%d", c.Channels, c.Height, c.Width)
	}
	return nil
}

// CIFAR10Config returns a config shaped like CIFAR10 (10 classes, 60K/10K)
// scaled by the given factor in sample count. scale=1 is the full paper
// size; the benches use smaller scales so experiments finish quickly and
// record the scale they used.
func CIFAR10Config(scale float64, seed uint64) Config {
	if scale <= 0 {
		scale = 1
	}
	return Config{
		Name:       fmt.Sprintf("synthetic-cifar10(x%.3g)", scale),
		NumClasses: 10,
		Train:      max(10, int(60000*scale)),
		Test:       max(10, int(10000*scale)),
		Channels:   1, // paper describes the Cipher input as 28x28 grayscale
		Height:     16,
		Width:      16,
		Noise:      1.3, // hard enough that accuracy saturates below 100%
		Jitter:     3,
		Bumps:      4,
		Seed:       seed,
	}
}

// ImageNet100Config returns a config shaped like the paper's 100-class
// ImageNet subset (1.2M/50K at scale=1), used with MobileNetLite on the
// simulated GPU cluster.
func ImageNet100Config(scale float64, seed uint64) Config {
	if scale <= 0 {
		scale = 1
	}
	return Config{
		Name:       fmt.Sprintf("synthetic-imagenet100(x%.3g)", scale),
		NumClasses: 100,
		Train:      max(200, int(1200000*scale)),
		Test:       max(100, int(50000*scale)),
		Channels:   3,
		Height:     16, // paper uses 256x256; scaled for single-machine runs
		Width:      16,
		Noise:      0.3,
		Jitter:     2,
		Bumps:      5,
		Seed:       seed,
	}
}

// Generate builds the train and test datasets for cfg.
func Generate(cfg Config) (train, test *Dataset, err error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	rng := stats.NewRNG(cfg.Seed)
	templates := makeTemplates(cfg, rng)
	train = synthesize(cfg, cfg.Train, templates, rng.Split(1))
	test = synthesize(cfg, cfg.Test, templates, rng.Split(2))
	return train, test, nil
}

// MustGenerate is Generate, panicking on config errors. For examples and
// benches with known-good configs.
func MustGenerate(cfg Config) (train, test *Dataset) {
	train, test, err := Generate(cfg)
	if err != nil {
		panic(err)
	}
	return train, test
}

// makeTemplates builds one smooth template per class: a sum of random 2-D
// Gaussian bumps, per channel, normalized to zero mean / unit-ish range.
func makeTemplates(cfg Config, rng *stats.RNG) [][]float32 {
	sz := cfg.Channels * cfg.Height * cfg.Width
	templates := make([][]float32, cfg.NumClasses)
	for cls := range templates {
		t := make([]float32, sz)
		for b := 0; b < cfg.Bumps; b++ {
			cx := rng.Float64() * float64(cfg.Width)
			cy := rng.Float64() * float64(cfg.Height)
			sigma := 1.0 + float64(rng.Float64()*float64(cfg.Width)/4)
			amp := rng.NormFloat64() * 2
			ch := rng.Intn(cfg.Channels)
			for y := 0; y < cfg.Height; y++ {
				for x := 0; x < cfg.Width; x++ {
					dx, dy := float64(x)-float64(cx), float64(y)-float64(cy)
					v := amp * math.Exp(-(float64(dx*dx)+float64(dy*dy))/(2*sigma*sigma))
					t[(ch*cfg.Height+y)*cfg.Width+x] += float32(v)
				}
			}
		}
		normalize(t)
		templates[cls] = t
	}
	return templates
}

func normalize(t []float32) {
	var mean float64
	for _, v := range t {
		mean += float64(v)
	}
	mean /= float64(len(t))
	var ss float64
	for _, v := range t {
		d := float64(v) - mean
		ss += float64(d * d)
	}
	std := math.Sqrt(ss/float64(len(t))) + 1e-8
	for i := range t {
		t[i] = float32((float64(t[i]) - mean) / std)
	}
}

func synthesize(cfg Config, n int, templates [][]float32, rng *stats.RNG) *Dataset {
	d := &Dataset{
		Name:       cfg.Name,
		NumClasses: cfg.NumClasses,
		Channels:   cfg.Channels,
		Height:     cfg.Height,
		Width:      cfg.Width,
		images:     make([]float32, n*cfg.Channels*cfg.Height*cfg.Width),
		labels:     make([]int32, n),
	}
	sz := d.SampleSize()
	for i := 0; i < n; i++ {
		cls := i % cfg.NumClasses // balanced classes
		d.labels[i] = int32(cls)
		img := d.images[i*sz : (i+1)*sz]
		shiftX, shiftY := 0, 0
		if cfg.Jitter > 0 {
			shiftX = rng.Intn(2*cfg.Jitter+1) - cfg.Jitter
			shiftY = rng.Intn(2*cfg.Jitter+1) - cfg.Jitter
		}
		tmpl := templates[cls]
		for ch := 0; ch < cfg.Channels; ch++ {
			for y := 0; y < cfg.Height; y++ {
				sy := y + shiftY
				for x := 0; x < cfg.Width; x++ {
					sx := x + shiftX
					var v float32
					if sy >= 0 && sy < cfg.Height && sx >= 0 && sx < cfg.Width {
						v = tmpl[(ch*cfg.Height+sy)*cfg.Width+sx]
					}
					v += float32(rng.NormFloat64() * cfg.Noise)
					img[(ch*cfg.Height+y)*cfg.Width+x] = v
				}
			}
		}
	}
	// Shuffle so shards are class-balanced even with contiguous splits.
	rng.Shuffle(n, func(i, j int) {
		d.labels[i], d.labels[j] = d.labels[j], d.labels[i]
		a := d.images[i*sz : (i+1)*sz]
		b := d.images[j*sz : (j+1)*sz]
		for k := range a {
			a[k], b[k] = b[k], a[k]
		}
	})
	return d
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
