// Package dlion is a from-scratch Go reproduction of "DLion: Decentralized
// Distributed Deep Learning in Micro-Clouds" (Hong & Chandra, HPDC 2021).
//
// It provides:
//
//   - the DLion worker with the paper's three techniques — weighted dynamic
//     batching, per-link prioritized gradient exchange, and direct knowledge
//     transfer — plus the four comparison systems (Baseline, Ako, Gaia, Hop)
//     expressed as configurations of the same worker;
//   - every substrate the original prototype borrowed: a neural-network
//     engine (replacing TensorFlow), synthetic datasets (replacing
//     CIFAR10/ImageNet), a message broker (replacing Redis), and a
//     discrete-event micro-cloud simulator (replacing the physical CPU/GPU
//     clusters and their stress/tc emulation);
//   - the full evaluation harness regenerating the paper's tables and
//     figures (see EXPERIMENTS.md and cmd/dlion-bench).
//
// Quick start:
//
//	res, err := dlion.Quick("dlion", "Hetero SYS A", 300)
//	if err != nil { ... }
//	fmt.Printf("accuracy after 300 virtual seconds: %.3f\n",
//	    res.Timeline.FinalMean())
//
// The package is a façade over the internal packages; the types below are
// aliases so downstream code composes with the full API surface.
package dlion

import (
	"dlion/internal/cluster"
	"dlion/internal/core"
	"dlion/internal/data"
	"dlion/internal/env"
	"dlion/internal/nn"
	"dlion/internal/systems"
)

// Core configuration and result types.
type (
	// SystemConfig selects and parameterizes a distributed-DL system (which
	// gradients to exchange, how to synchronize, DKT, dynamic batching).
	SystemConfig = core.Config
	// ExperimentConfig describes one simulated experiment: system, model,
	// dataset, cluster resources, and horizon.
	ExperimentConfig = cluster.Config
	// Result is everything an experiment run produced.
	Result = cluster.Result
	// Timeline is the periodic accuracy evaluation series.
	Timeline = cluster.Timeline
	// Environment is an instantiated Table 3 micro-cloud.
	Environment = env.Env
	// ModelSpec describes a model to build (Cipher or MobileNetLite).
	ModelSpec = nn.Spec
	// DataConfig describes a synthetic dataset.
	DataConfig = data.Config
	// Dataset is an in-memory labeled image dataset.
	Dataset = data.Dataset
	// Shard is one worker's partition of a dataset.
	Shard = data.Shard
	// SyncConfig, DKTConfig and BatchConfig parameterize SystemConfig.
	SyncConfig = core.SyncConfig
	// DKTConfig parameterizes direct knowledge transfer.
	DKTConfig = core.DKTConfig
	// BatchConfig parameterizes weighted dynamic batching.
	BatchConfig = core.BatchConfig
)

// Synchronization strategies re-exported from internal/core.
const (
	SyncAsync   = core.SyncAsync
	SyncFull    = core.SyncFull
	SyncBounded = core.SyncBounded
)

// Systems returns the five evaluated system presets with the paper's
// settings: Baseline, Ako, Gaia, Hop, DLion.
func Systems() []SystemConfig { return systems.All() }

// System resolves a system preset by name ("dlion", "baseline", "ako",
// "gaia", "hop", plus the ablation variants "dlion-no-wu",
// "dlion-no-dbwu", "max10").
func System(name string) (SystemConfig, error) { return systems.ByName(name) }

// DLion returns the full DLion preset (all three techniques enabled).
func DLion() SystemConfig { return systems.DLion() }

// EnvironmentNames lists the Table 3 environments.
func EnvironmentNames() []string { return env.Names() }

// GetEnvironment instantiates a Table 3 environment by name.
func GetEnvironment(name string, seed uint64) (*Environment, error) {
	return env.Get(name, seed)
}

// CipherDataConfig returns the synthetic CIFAR10 substitute scaled by the
// given factor (1.0 = the paper's 60K/10K).
func CipherDataConfig(scale float64, seed uint64) DataConfig {
	return data.CIFAR10Config(scale, seed)
}

// ImageNetDataConfig returns the synthetic ImageNet-100 substitute.
func ImageNetDataConfig(scale float64, seed uint64) DataConfig {
	return data.ImageNet100Config(scale, seed)
}

// CipherSpec returns the paper's Cipher CNN model spec for the given input
// geometry (5 MB wire size).
func CipherSpec(channels, h, w, classes int, seed uint64) ModelSpec {
	return nn.CipherSpec(channels, h, w, classes, seed)
}

// MobileNetLiteSpec returns the reduced MobileNet spec (17 MB wire size).
func MobileNetLiteSpec(channels, h, w, classes int, seed uint64) ModelSpec {
	return nn.MobileNetLiteSpec(channels, h, w, classes, seed)
}

// Run executes one experiment on the discrete-event simulator.
func Run(cfg ExperimentConfig) (*Result, error) { return cluster.Run(cfg) }

// dataGenerate is facade glue (see GenerateData in facade.go).
func dataGenerate(cfg DataConfig) (*Dataset, *Dataset, error) { return data.Generate(cfg) }

// PartitionData splits a dataset into n disjoint worker shards.
func PartitionData(ds *Dataset, n int, seed uint64) ([]*Shard, error) {
	return data.Partition(ds, n, seed)
}

// Quick runs a named system in a named Table 3 environment for the given
// virtual-seconds horizon on a scaled-down synthetic CIFAR10, with
// harness defaults chosen to finish in seconds of wall time.
func Quick(system, environment string, horizon float64) (*Result, error) {
	sys, err := systems.ByName(system)
	if err != nil {
		return nil, err
	}
	e, err := env.Get(environment, 7)
	if err != nil {
		return nil, err
	}
	dc := data.CIFAR10Config(0.05, 11)
	model := nn.CipherSpec(dc.Channels, dc.Height, dc.Width, dc.NumClasses, 0)
	if e.GPU {
		dc = data.ImageNet100Config(0.002, 11)
		model = nn.MobileNetLiteSpec(dc.Channels, dc.Height, dc.Width, dc.NumClasses, 0)
	}
	return cluster.Run(cluster.Config{
		System:   sys,
		Model:    model,
		Data:     dc,
		N:        e.N,
		Computes: e.Computes,
		Network:  e.Network,
		Horizon:  horizon,
		Seed:     3,
	})
}
