package obs

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
)

// published holds the current binding of every name Publish has
// registered; publishMu serializes Publish against the global expvar
// namespace (expvar.Publish panics on duplicates).
var (
	publishMu sync.Mutex
	published = map[string]*atomic.Pointer[func() any]{}
)

// Publish registers fn's result as the expvar variable name, making it
// visible on /debug/vars. Unlike expvar.Publish it may be called again for
// the same name: the latest fn wins and the earlier one is dropped, so a
// second in-process run of a binary serves its own values, not the first
// run's. A name taken by an expvar.Publish outside this package is left
// as it is.
func Publish(name string, fn func() any) {
	publishMu.Lock()
	defer publishMu.Unlock()
	if cur := published[name]; cur != nil {
		cur.Store(&fn)
		return
	}
	if expvar.Get(name) != nil {
		return
	}
	cur := new(atomic.Pointer[func() any])
	cur.Store(&fn)
	published[name] = cur
	expvar.Publish(name, expvar.Func(func() any { return (*cur.Load())() }))
}

// PublishRegistry exposes reg's snapshot — counters, gauges, and histogram
// summaries — as the expvar variable name.
func PublishRegistry(name string, reg *Registry) {
	Publish(name, func() any { return reg.Expvar() })
}

// DebugServer is the HTTP server behind a binary's -debug-addr flag. It
// serves the standard Go profiling endpoints (/debug/pprof/...) and the
// process's published expvars (/debug/vars) on a dedicated mux, leaving
// http.DefaultServeMux untouched.
type DebugServer struct {
	srv *http.Server
	ln  net.Listener
}

// ServeDebug starts a debug server on addr (use "127.0.0.1:0" for an
// ephemeral port) and, when reg is non-nil, publishes it under the expvar
// name "dlion". It returns once the listener is bound.
func ServeDebug(addr string, reg *Registry) (*DebugServer, error) {
	if reg != nil {
		PublishRegistry("dlion", reg)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "dlion debug server — see /debug/pprof/ and /debug/vars")
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &DebugServer{srv: &http.Server{Handler: mux}, ln: ln}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the server's bound address.
func (s *DebugServer) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down.
func (s *DebugServer) Close() error { return s.srv.Close() }
