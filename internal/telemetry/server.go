package telemetry

import (
	"net"
	"net/http"
	"net/http/pprof"
)

// metricsHandler returns an http.Handler serving the registry in Prometheus
// text exposition format 0.0.4.
func metricsHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		// Scrape errors past the header are write errors on the client
		// connection — nothing useful to report server-side.
		_ = r.WriteText(w)
	})
}

// metricsMux returns the metrics mux: /metrics plus the /debug/pprof profiling
// surface.  A private mux, not http.DefaultServeMux, so importing this
// package never leaks profiling handlers into an application's own server.
func metricsMux(r *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", metricsHandler(r))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server is a running metrics endpoint.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve binds addr and serves the registry's /metrics and /debug/pprof on a
// background goroutine.  The listener is bound synchronously so the caller
// learns the bind error (and the resolved address) immediately.
func Serve(addr string, r *Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: metricsMux(r)}
	go func() { _ = srv.Serve(ln) }()
	return &Server{ln: ln, srv: srv}, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the endpoint.
func (s *Server) Close() error { return s.srv.Close() }
