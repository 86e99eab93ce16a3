// Internal tests (package cluster): white-box pins on coordinator wiring.
// The behavioral suite lives in cluster_test.go (external package).
package cluster

import (
	"net/http"
	"testing"
)

// TestCoordinatorsShareKeepAliveClient pins the dispatch-client reuse: every
// coordinator dispatches on the one process-wide keep-alive client, so
// successive sweeps, from one coordinator or several, reuse warm worker
// connections instead of re-dialing. The byte-identity of sharded
// results over this client is pinned separately by
// TestKeyExtractThroughCluster and TestDistributedMatchesSerial.
func TestCoordinatorsShareKeepAliveClient(t *testing.T) {
	tr, ok := sharedClient.Transport.(*http.Transport)
	if !ok {
		t.Fatalf("shared client transport is %T, want *http.Transport", sharedClient.Transport)
	}
	if tr.DisableKeepAlives {
		t.Error("shared transport has keep-alives disabled")
	}
	if tr.MaxIdleConnsPerHost < 2 {
		t.Errorf("MaxIdleConnsPerHost = %d; parallel shard dispatch to one worker will re-dial", tr.MaxIdleConnsPerHost)
	}
}
