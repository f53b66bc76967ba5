// Package simnet models the network connecting DLion workers: per-link
// bandwidth schedules (substituting for the paper's `tc`-based emulation
// and its AWS WAN measurements) and round-trip times, and the network
// resource monitor workers query before generating partial gradients. What
// a transfer costs is the simulator's to charge (cluster's simEnv.Send).
package simnet

import (
	"fmt"

	"dlion/internal/simcompute"
)

// Link is a directed connection between two workers with a time-varying
// bandwidth (Mbps) and a fixed propagation delay (seconds).
type Link struct {
	Bandwidth simcompute.Schedule // Mbps over virtual time
	RTT       float64             // round-trip time in seconds
}

// Network is a full mesh of directed links between n workers.
type Network struct {
	n     int
	links [][]*Link
}

// New builds a network of n workers with no links; use SetLink or one of
// the topology helpers to populate it. Self-links are implicit and free.
func New(n int) *Network {
	if n < 1 {
		panic("simnet: network needs at least one worker")
	}
	links := make([][]*Link, n)
	for i := range links {
		links[i] = make([]*Link, n)
	}
	return &Network{n: n, links: links}
}

// Size returns the number of workers.
func (nw *Network) Size() int { return nw.n }

// SetLink installs the directed link from i to j.
func (nw *Network) SetLink(i, j int, l Link) {
	if i == j {
		panic("simnet: self-link")
	}
	nw.links[i][j] = &l
}

// setShared installs a shared *Link on the directed edge i->j. Topology
// constructors use it so that a class of identical links (a cloud's LAN
// mesh, the WAN tier) is one Link object instead of O(n²) — at 1024 workers
// that is the difference between 3 allocations and a million. Links are
// read-only during a run, so sharing is safe.
func (nw *Network) setShared(i, j int, l *Link) {
	if i == j {
		panic("simnet: self-link")
	}
	nw.links[i][j] = l
}

// Link returns the directed link from i to j, or an error if absent.
func (nw *Network) Link(i, j int) (*Link, error) {
	if i < 0 || i >= nw.n || j < 0 || j >= nw.n {
		return nil, fmt.Errorf("simnet: link %d->%d out of range (n=%d)", i, j, nw.n)
	}
	l := nw.links[i][j]
	if l == nil {
		return nil, fmt.Errorf("simnet: no link %d->%d", i, j)
	}
	return l, nil
}

// BandwidthAt returns the available bandwidth (Mbps) of link i->j at time
// t. This is the paper's "network resource monitor": DLion's transmission
// speed assurance module calls it each iteration to size partial gradients.
func (nw *Network) BandwidthAt(i, j int, t float64) (float64, error) {
	l, err := nw.Link(i, j)
	if err != nil {
		return 0, err
	}
	return l.Bandwidth.At(t), nil
}

// Uniform builds a full mesh where every directed link has the same
// bandwidth schedule and RTT. All edges share one Link object.
func Uniform(n int, bandwidth simcompute.Schedule, rtt float64) *Network {
	nw := New(n)
	l := &Link{Bandwidth: bandwidth, RTT: rtt}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				nw.setShared(i, j, l)
			}
		}
	}
	return nw
}

// PerWorkerEgress builds a full mesh where all links leaving worker i share
// worker i's bandwidth schedule — the shape of the paper's Table 3 network
// rows ("50/50/35/35/20/20" assigns one figure per worker).
func PerWorkerEgress(schedules []simcompute.Schedule, rtt float64) *Network {
	nw := New(len(schedules))
	for i := range schedules {
		l := &Link{Bandwidth: schedules[i], RTT: rtt}
		for j := range schedules {
			if i != j {
				nw.setShared(i, j, l)
			}
		}
	}
	return nw
}

// Cloud describes one micro-cloud of a hierarchical federation: Workers
// nodes joined by an intra-cloud LAN full mesh.
type Cloud struct {
	Workers int                 // nodes in this cloud, >= 1
	LAN     simcompute.Schedule // intra-cloud bandwidth (Mbps)
	LANRTT  float64             // intra-cloud round-trip time (seconds)
}

// Hierarchical builds a federation of micro-clouds: workers within one
// cloud are joined by that cloud's LAN mesh, workers in different clouds by
// the shared WAN tier. This extends the paper's Table 2 single-tier AWS
// matrix to the 100–1000-worker micro-cloud federations DLion motivates:
// worker ids are assigned cloud by cloud, so cloud c owns the contiguous id
// range [sum(Workers[:c]), sum(Workers[:c+1])).
//
// The model is deliberately two-tier — every cross-cloud pair sees the same
// WAN uplink capacity, as the paper's geo-distributed measurements show WAN
// bandwidth dominated by the site's uplink rather than the specific remote
// site. Per-pair WAN asymmetries can still be layered on with SetLink.
func Hierarchical(clouds []Cloud, wan simcompute.Schedule, wanRTT float64) *Network {
	total := 0
	for ci, c := range clouds {
		if c.Workers < 1 {
			panic(fmt.Sprintf("simnet: cloud %d has %d workers", ci, c.Workers))
		}
		total += c.Workers
	}
	nw := New(total)
	wanLink := &Link{Bandwidth: wan, RTT: wanRTT}
	base := 0
	for _, c := range clouds {
		lanLink := &Link{Bandwidth: c.LAN, RTT: c.LANRTT}
		for i := base; i < base+c.Workers; i++ {
			for j := 0; j < total; j++ {
				if i == j {
					continue
				}
				if j >= base && j < base+c.Workers {
					nw.setShared(i, j, lanLink)
				} else {
					nw.setShared(i, j, wanLink)
				}
			}
		}
		base += c.Workers
	}
	return nw
}

// HierarchicalUniform builds nClouds identical micro-clouds of perCloud
// workers each: LAN meshes at lanMbps/lanRTT inside every cloud, a WAN tier
// at wanMbps/wanRTT between clouds. It is the constructor the fleet-scale
// DES benchmarks and the EXPERIMENTS.md federation recipe use.
func HierarchicalUniform(nClouds, perCloud int, lanMbps, wanMbps float64, lanRTT, wanRTT float64) *Network {
	if nClouds < 1 {
		panic("simnet: need at least one cloud")
	}
	clouds := make([]Cloud, nClouds)
	for i := range clouds {
		clouds[i] = Cloud{Workers: perCloud, LAN: simcompute.Constant(lanMbps), LANRTT: lanRTT}
	}
	return Hierarchical(clouds, simcompute.Constant(wanMbps), wanRTT)
}

// FromMatrix builds a network from an explicit bandwidth matrix (Mbps), as
// in the paper's Table 2 AWS measurements. matrix[i][j] is the bandwidth of
// link i->j; the diagonal is ignored.
func FromMatrix(matrix [][]float64, rtt float64) *Network {
	n := len(matrix)
	nw := New(n)
	for i := 0; i < n; i++ {
		if len(matrix[i]) != n {
			panic(fmt.Sprintf("simnet: matrix row %d has %d entries, want %d", i, len(matrix[i]), n))
		}
		for j := 0; j < n; j++ {
			if i != j {
				nw.SetLink(i, j, Link{Bandwidth: simcompute.Constant(matrix[i][j]), RTT: rtt})
			}
		}
	}
	return nw
}
