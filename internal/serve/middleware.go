package serve

import (
	"context"
	"fmt"
	"net/http"

	"dime/internal/obs"
)

// statusWriter records the response status for instrumentation.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

// instrument wraps a handler with the serving middleware stack:
//
//   - a request deadline (Options.RequestTimeout) on the request context,
//     which also caps ?wait=true long-polls;
//   - per-endpoint observability: a latency histogram
//     ("dime.http.<route>.seconds"), request and per-status-class counters,
//     and an in-flight gauge in the registry, plus one flight-recorder run
//     per request ("http" with route/method/status attrs) so slow requests
//     are retained and inspectable at /debug/flight;
//   - panic recovery: a panicking handler yields 500 and a
//     "dime.http.panics" counter instead of tearing the connection down.
func (s *Service) instrument(route string, h http.HandlerFunc) http.Handler {
	reg := s.opts.Registry
	hist := reg.Histogram("dime.http."+route+".seconds", nil)
	requests := reg.Counter("dime.http." + route + ".requests")
	inflight := reg.Gauge("dime.http.inflight")
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		ctx, cancel := context.WithTimeout(req.Context(), s.opts.RequestTimeout)
		defer cancel()
		req = req.WithContext(ctx)

		start := obs.Now()
		requests.Add(1)
		inflight.Add(1)
		sw := &statusWriter{ResponseWriter: w}
		run := obs.Start(s.opts.Flight, "http",
			obs.A("route", route), obs.A("method", req.Method), obs.A("path", req.URL.Path))
		defer func() {
			if v := recover(); v != nil {
				reg.Counter("dime.http.panics").Add(1)
				if sw.status == 0 {
					writeError(sw, http.StatusInternalServerError,
						fmt.Errorf("internal error handling %s", route))
				}
			}
			if sw.status == 0 {
				sw.status = http.StatusOK
			}
			run.Count(fmt.Sprintf("status-%d", sw.status), 1)
			run.End()
			hist.Observe(obs.Since(start).Seconds())
			reg.Counter(fmt.Sprintf("dime.http.%s.status.%dxx", route, sw.status/100)).Add(1)
			inflight.Add(-1)
		}()
		h(sw, req)
	})
}
