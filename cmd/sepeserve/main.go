// Sepeserve is a multi-tenant hash service: a daemon owning named key
// formats, each served by a synthesized, self-healing hash function.
//
//	sepeserve -addr :8321 -cache /var/lib/sepe/plans
//
// Register a format (synthesis runs in the background; poll the
// status endpoint until "ready"):
//
//	curl -s localhost:8321/v1/formats -d '{"name":"ssn","regex":"[0-9]{3}-[0-9]{2}-[0-9]{4}"}'
//	curl -s localhost:8321/v1/formats/ssn
//
// Hash keys (single or batch), export the compiled plan, import it
// elsewhere:
//
//	curl -s localhost:8321/v1/hash/ssn -d '{"key":"123-45-6789"}'
//	curl -s localhost:8321/v1/hash/ssn -d '{"keys":["123-45-6789","987-65-4321"]}'
//	curl -s localhost:8321/v1/formats/ssn/plan -o ssn.sepeplan
//	curl -s -X PUT --data-binary @ssn.sepeplan localhost:8321/v1/formats/ssn2/plan
//
// With -cache, registered and imported plans persist as wire frames,
// shutdown persists the plan each tenant serves (a re-synthesized plan
// once promoted), and the next start preloads them — no re-synthesis
// on restart. Plan frames never contain seed material (DESIGN.md §11/§12);
// keyed tenants are re-keyed with a fresh process seed on preload.
//
// Observability rides on the library's existing plane: /healthz,
// /livez, /metrics (Prometheus or ?format=json), /debug/trace.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/sepe-go/sepe/internal/telemetry"
	"github.com/sepe-go/sepe/internal/wire"
)

func main() {
	var (
		addr     = flag.String("addr", ":8321", "listen address")
		cacheDir = flag.String("cache", "", "plan cache directory (empty: no persistence)")
		preload  = flag.Bool("preload", true, "warm-start tenants from the plan cache at boot")
		quick    = flag.Bool("quick", false, "tighten adaptive timeouts (tests and demos)")
	)
	flag.Parse()
	if err := run(*addr, *cacheDir, *preload, *quick, os.Stderr); err != nil {
		log.Fatal(err)
	}
}

// run wires the daemon and blocks until SIGINT/SIGTERM, then drains
// connections and stops every tenant's healing loop.
func run(addr, cacheDir string, preload, quick bool, logw *os.File) error {
	logger := log.New(logw, "sepeserve: ", log.LstdFlags)

	var cache *wire.Cache
	if cacheDir != "" {
		var err error
		cache, err = wire.OpenCache(cacheDir)
		if err != nil {
			return err
		}
	}
	reg := newRegistry(telemetry.Default, cache)
	reg.quick = quick
	defer reg.close()

	if cache != nil && preload {
		n, err := reg.preload()
		if err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		logger.Printf("preloaded %d tenant(s) from %s", n, cache.Dir())
	}

	srv := &http.Server{
		Addr:              addr,
		Handler:           newServer(reg).mux(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	logger.Printf("listening on %s", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	logger.Printf("shutting down")
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		return err
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
