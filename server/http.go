package server

// Operational HTTP endpoints: /healthz answers 200 only while the runtime
// is healthy (503 with the mode name while restarting or degraded — a load
// balancer should stop routing queries, even though ingest may still be
// accepting frames into the WAL), and /metrics exposes the counter registry
// in a one-line-per-counter text format plus the JSON stats snapshot at
// /metrics?format=json.

import (
	"fmt"
	"net"
	"net/http"
)

func (s *Service) startHTTP(addr string) error {
	nl, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("server: http listen: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		mode := s.Mode()
		if mode != ModeHealthy {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		fmt.Fprintf(w, "%s gen=%d fails=%d\n", mode, s.gen.Load(), s.fails.Load())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintln(w, s.statsJSON(0))
			return
		}
		s.refreshCatalogGauges()
		snap := s.counters.Snapshot()
		for _, name := range s.counters.Names() {
			fmt.Fprintf(w, "%s %d\n", name, snap[name])
		}
		gsnap := s.gauges.Snapshot()
		for _, name := range s.gauges.Names() {
			fmt.Fprintf(w, "%s %g\n", name, gsnap[name])
		}
		fmt.Fprintf(w, "server_mode %d\n", int32(s.mode.Load()))
		fmt.Fprintf(w, "server_generation %d\n", s.gen.Load())
	})
	srv := &http.Server{Handler: mux}
	go srv.Serve(nl)
	s.httpAddr = nl.Addr().String()
	s.httpClose = srv.Close
	return nil
}

// HTTPAddr returns the bound HTTP address ("" when HTTP is disabled).
func (s *Service) HTTPAddr() string { return s.httpAddr }
