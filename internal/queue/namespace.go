package queue

import "fmt"

// Namespace prefixes every broker key and channel a workload touches, so
// independent workloads — most importantly the control plane's concurrent
// training jobs — can share one broker without any cross-delivery. The
// empty namespace is the historical single-job layout ("dlion:data:<id>"),
// so pre-control-plane deployments keep their exact key shapes.
//
// A job's namespace is "dlion:job:<id>:"; inside it the same sub-key
// conventions apply as at the root (a data list per worker, named channels
// for broadcasts). Isolation is purely lexical: the broker needs no new
// machinery, and a frame published into one namespace can never surface in
// another because no key of one namespace is a key of any other (job ids
// cannot contain ':', enforced by ValidJobID).
type Namespace string

// JobNamespace returns the namespace of the training job with the given id:
// "dlion:job:<id>:". Callers must validate the id with ValidJobID first.
func JobNamespace(jobID string) Namespace {
	return Namespace("dlion:job:" + jobID + ":")
}

// DataKey returns the list key carrying a worker's inbound data within
// this namespace. The empty namespace yields the historical
// "dlion:data:<id>" keys.
func (ns Namespace) DataKey(worker int) string { return ns.key("data", worker) }

// AddrKey returns the broker register key under which a worker advertises
// the host:port that serves its data list: "dlion:addr:<id>" at the root.
func (ns Namespace) AddrKey(worker int) string { return ns.key("addr", worker) }

func (ns Namespace) key(kind string, worker int) string {
	if ns == "" {
		return fmt.Sprintf("dlion:%s:%d", kind, worker)
	}
	return fmt.Sprintf("%s%s:%d", string(ns), kind, worker)
}

// ValidJobID reports whether id is usable as a job namespace component:
// 1–64 characters of [a-zA-Z0-9._-]. The character set excludes ':' (the
// key separator) and whitespace, which is what makes namespaces disjoint.
func ValidJobID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}
