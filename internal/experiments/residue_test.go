package experiments

import (
	"context"
	"math"
	"net/netip"
	"runtime"
	"testing"
	"time"

	"tango/internal/netsim"
	"tango/internal/topology"
	"tango/internal/webserver"
)

// residue is what the process holds after a forced GC: goroutines and live
// heap bytes.
type residue struct {
	goroutines int
	heap       uint64
}

// settledResidue measures residue once it stops shrinking: a just-closed
// user's connection goroutines exit asynchronously, as their peers see
// EOF, and what they held becomes garbage only after that.
func settledResidue() residue {
	measure := func() residue {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return residue{goroutines: runtime.NumGoroutine(), heap: ms.HeapAlloc}
	}
	prev := measure()
	for i := 0; i < 100; i++ {
		//lint:allow-wallclock real-time yield so exiting goroutines finish before the next count
		time.Sleep(5 * time.Millisecond)
		cur := measure()
		if cur.goroutines == prev.goroutines && cur.heap+cur.heap/100 >= prev.heap {
			return cur
		}
		prev = cur
	}
	return prev
}

// TestClientCloseLeavesNoResidue: one world serves 400 fresh browse-shaped
// users (a new browser, extension and proxy per user, one mixed SCION/IP
// page load each), every one closed after use. Whatever a user leaves
// behind grows with the user count, so the residue after user 100 and
// after user 400 must agree within 5%.
func TestClientCloseLeavesNoResidue(t *testing.T) {
	const users = 400
	w, err := NewWorld(9, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.Legacy.SetDefaultRoute(netsim.RouteProps{Latency: 2 * time.Millisecond})

	scionSite := webserver.NewSite()
	addResources(scionSite, 4)
	scionSite.AddPage("/index.html", webserver.BuildPage("residue", urlsFor(4, "scionfs.local", "ipfs.local")))
	if err := w.scionServer(topology.AS111, "10.0.0.2", scionSite, 0, "scionfs.local"); err != nil {
		t.Fatal(err)
	}
	ipSite := webserver.NewSite()
	addResources(ipSite, 4)
	if _, err := webserver.ServeIP(w.Legacy, "192.0.2.10:80", ipSite); err != nil {
		t.Fatal(err)
	}
	w.Zone.AddA("ipfs.local", netip.MustParseAddr("192.0.2.10"), time.Hour)

	var at100 residue
	for u := 1; u <= users; u++ {
		c, err := w.NewClient(ClientConfig{IA: topology.AS111, IP: "10.0.0.1", LegacyName: "client", Seed: int64(u)})
		if err != nil {
			t.Fatal(err)
		}
		pl, err := c.Browser.LoadPage(context.Background(), "http://scionfs.local/index.html")
		if err != nil {
			t.Fatalf("user %d: %v", u, err)
		}
		if len(pl.Resources) != 4 {
			t.Fatalf("user %d loaded %d of 4 resources", u, len(pl.Resources))
		}
		c.Close()
		if u == 100 {
			at100 = settledResidue()
		}
	}
	at400 := settledResidue()
	t.Logf("residue at user 100: %+v, at user %d: %+v", at100, users, at400)
	if !within5(float64(at100.goroutines), float64(at400.goroutines)) {
		t.Errorf("goroutines moved %d → %d from user 100 to user %d", at100.goroutines, at400.goroutines, users)
	}
	if !within5(float64(at100.heap), float64(at400.heap)) {
		t.Errorf("live heap moved %d → %d bytes from user 100 to user %d", at100.heap, at400.heap, users)
	}
}

// within5 reports whether b is within 5% of a.
func within5(a, b float64) bool {
	return math.Abs(b-a) <= 0.05*a
}
