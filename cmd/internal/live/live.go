// Package live serves a flight recorder over HTTP: /metrics
// (OpenMetrics text), /timeline (JSON sample series) and /progress
// (JSON position), plus the extra JSON endpoints a command registers
// (/profile, /traces, /bottlenecks). It is the only place where the
// flight recorder meets the network — the telemetry, system and
// campaign packages stay under the determinism rule, while the HTTP
// server (and its wall clock) live here in cmd/ territory.
package live

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
)

// Source is the flight data a server exposes. Both *telemetry.Recorder
// (one run) and *telemetry.CampaignRecorder (a whole campaign) satisfy
// it.
type Source interface {
	WriteMetrics(io.Writer) error
	WriteTimeline(io.Writer) error
	WriteProgress(io.Writer) error
	// WriteHealth renders /healthz: run state plus sample counts.
	WriteHealth(io.Writer) error
}

// Endpoint is one extra JSON document served next to the flight
// endpoints, such as a campaign instrument's /profile or a single run's
// /traces.
type Endpoint struct {
	Path  string
	Write func(io.Writer) error
}

// TimelineCSVSource lets a source serve /timeline?format=csv; sources
// without it only speak JSON on that endpoint.
type TimelineCSVSource interface {
	WriteTimelineCSV(io.Writer) error
}

// Exposition content types.
const (
	contentTypeOM   = "application/openmetrics-text; version=1.0.0; charset=utf-8"
	contentTypeJSON = "application/json; charset=utf-8"
	contentTypeCSV  = "text/csv; charset=utf-8"
)

// handler renders one endpoint into a buffer first, so a render error
// becomes a clean 500 instead of a truncated body.
func handler(contentType string, write func(io.Writer) error) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", contentType)
		w.Write(buf.Bytes())
	}
}

// NewMux routes the flight-recorder endpoints over src plus each extra
// endpoint.
func NewMux(src Source, extra ...Endpoint) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", handler(contentTypeOM, src.WriteMetrics))
	timelineJSON := handler(contentTypeJSON, src.WriteTimeline)
	if cs, ok := src.(TimelineCSVSource); ok {
		timelineCSV := handler(contentTypeCSV, cs.WriteTimelineCSV)
		mux.HandleFunc("/timeline", func(w http.ResponseWriter, req *http.Request) {
			if req.URL.Query().Get("format") == "csv" {
				timelineCSV(w, req)
				return
			}
			timelineJSON(w, req)
		})
	} else {
		mux.HandleFunc("/timeline", timelineJSON)
	}
	mux.HandleFunc("/progress", handler(contentTypeJSON, src.WriteProgress))
	mux.HandleFunc("/healthz", handler(contentTypeJSON, src.WriteHealth))
	index := "odbscale flight recorder: /metrics /timeline /progress /healthz"
	for _, ep := range extra {
		mux.HandleFunc(ep.Path, handler(contentTypeJSON, ep.Write))
		index += " " + ep.Path
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, index)
	})
	return mux
}

// Server is a running flight-recorder endpoint.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts serving src and the extra endpoints on addr (e.g.
// ":8090" or "127.0.0.1:0") in a background goroutine and returns once
// the listener is bound, so Addr() is immediately routable.
func Serve(addr string, src Source, extra ...Endpoint) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("live: listening on %s: %w", addr, err)
	}
	srv := &http.Server{Handler: NewMux(src, extra...)}
	go srv.Serve(ln)
	return &Server{ln: ln, srv: srv}, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server and its listener.
func (s *Server) Close() error { return s.srv.Close() }
