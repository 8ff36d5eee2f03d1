package main

import (
	"errors"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"sync"
	"time"
)

// timingProxy is a pass-through HTTP proxy in front of ccmcached that
// times every entry read (GET) and write (PUT) the ccmd under test
// makes. It runs only in traced windows.
type timingProxy struct {
	ln   net.Listener
	srv  *http.Server
	done chan struct{}

	mu         sync.Mutex
	gets, puts []float64 // milliseconds
}

func newTimingProxy(target string) (*timingProxy, error) {
	u, err := url.Parse(target)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	rp := httputil.NewSingleHostReverseProxy(u)
	p := &timingProxy{ln: ln, done: make(chan struct{})}
	p.srv = &http.Server{
		ReadHeaderTimeout: 10 * time.Second,
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			t0 := time.Now()
			rp.ServeHTTP(w, r)
			d := ms(time.Since(t0))
			p.mu.Lock()
			switch r.Method {
			case http.MethodGet:
				p.gets = append(p.gets, d)
			case http.MethodPut:
				p.puts = append(p.puts, d)
			}
			p.mu.Unlock()
		}),
	}
	go func() {
		defer close(p.done)
		if err := p.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			return
		}
	}()
	return p, nil
}

func (p *timingProxy) url() string { return "http://" + p.ln.Addr().String() }

// close stops the proxy and waits for its server loop to return.
func (p *timingProxy) close() {
	_ = p.srv.Close()
	<-p.done
}
