// Tenant authentication and the audit API. The auth middleware sits
// between the telemetry middleware and the mux: it resolves every
// request to a tenant identity (bearer token for clients, the
// master-key-derived peer secret for fleet-internal hops), stamps the
// identity on the context, the root span, and the X-Draid-Tenant
// header (so proxy hops carry it), and turns everything else into an
// audited 401. Quota bookkeeping lives here too: per-tenant active-job
// and retained-shard-byte counters, enforced at submit and consulted
// by eviction.
package server

import (
	"crypto/hmac"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/hex"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/ledger"
	"repro/internal/shard"
	"repro/internal/telemetry"
	"repro/internal/tenant"
)

// peerAuthSecret derives the fleet-internal authentication secret from
// the shared master key. Every member of one data dir computes the
// same value, so node-to-node requests authenticate without any new
// key distribution — and nothing outside the fleet can mint it.
func peerAuthSecret(master []byte) string {
	mac := hmac.New(sha256.New, master)
	mac.Write([]byte("draid-peer-auth-v1"))
	return hex.EncodeToString(mac.Sum(nil))
}

// openPath lists the endpoints that stay unauthenticated with -tenants
// set: the liveness probe (fleet members and orchestrators hit it
// pre-credential) and the metrics scrape (documented operator choice —
// counters carry no tenant payloads).
func openPath(path string) bool {
	return path == "/healthz" || path == "/metrics"
}

// withAuth is the tenancy middleware. Without a tenant registry it is
// a no-op (today's open behavior). With one, every request resolves to
// an identity or dies with an audited 401:
//
//   - A valid X-Draid-Peer-Auth (fleet-internal hop) makes the
//     X-Draid-Tenant header trustworthy: the relaying node already
//     authenticated the client and stamped its tenant. No tenant header
//     means the fleet itself is calling (adoption scans, list merges) —
//     full visibility.
//   - Otherwise the bearer token (Authorization or ?access_token=)
//     must authenticate. The resolved tenant overwrites any
//     client-supplied X-Draid-Tenant, so spoofing the header buys
//     nothing without the peer secret.
func (s *Server) withAuth(next http.Handler) http.Handler {
	if s.tenants == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if openPath(r.URL.Path) {
			next.ServeHTTP(w, r)
			return
		}
		var ident tenant.Identity
		if subtle.ConstantTimeCompare([]byte(r.Header.Get(tenant.HeaderPeerAuth)), []byte(s.peerAuth)) == 1 {
			id := r.Header.Get(tenant.HeaderTenant)
			ident = tenant.Identity{ID: id, Admin: id == ""}
			if t, ok := s.tenants.Get(id); ok && t.Admin {
				ident.Admin = true
			}
		} else {
			tok := tenant.TokenFromRequest(r)
			t, ok := s.tenants.Authenticate(tok)
			if !ok {
				s.metrics.tenantAuthFailures.Inc()
				detail := "no credential"
				if tok != "" {
					detail = "invalid token"
				}
				s.audit(r.Context(), ledger.TypeAuthFailure, "", "", detail+": "+r.Method+" "+r.URL.Path, nil)
				s.logger.Info("auth failure", "method", r.Method, "path", tenant.RedactedPath(r),
					"trace", telemetry.TraceFrom(r.Context()))
				w.Header().Set("WWW-Authenticate", `Bearer realm="draid"`)
				writeError(w, http.StatusUnauthorized, fmt.Errorf("missing or invalid bearer token"))
				return
			}
			ident = tenant.Identity{ID: t.ID, Admin: t.Admin}
			// Stamp the authenticated tenant for any proxy hop that clones
			// these headers — the relay adds the peer secret that makes
			// the stamp trustworthy downstream.
			r.Header.Set(tenant.HeaderTenant, t.ID)
		}
		telemetry.SpanFromContext(r.Context()).SetAttr("tenant", ident.ID)
		next.ServeHTTP(w, r.WithContext(tenant.WithIdentity(r.Context(), ident)))
	})
}

// handleAuditRoots serves GET /v1/audit/roots: the ledger's published
// Merkle batch roots. Any authenticated caller may read them — roots
// reveal nothing about record contents, and verifying a proof against
// an independently fetched root is the whole point.
func (s *Server) handleAuditRoots(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"node":    s.nodeID(),
		"records": s.ledger.Len(),
		"roots":   s.ledger.Roots(),
	})
}

// handleAuditProof serves GET /v1/audit/proof?seq=N: the Merkle
// inclusion proof for one audit record of this node's ledger. Tenants
// may prove only their own records (admin proves any), so the audit
// API leaks no cross-tenant activity.
func (s *Server) handleAuditProof(w http.ResponseWriter, r *http.Request) {
	seq, err := strconv.ParseUint(r.URL.Query().Get("seq"), 10, 64)
	if err != nil || seq == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("query seq must be a positive integer"))
		return
	}
	proof, err := s.ledger.Prove(seq)
	if err != nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("no audit record with seq %d", seq))
		return
	}
	if s.tenants != nil {
		if ident := tenant.FromContext(r.Context()); !ident.CanAccess(proof.Record.Tenant) {
			writeError(w, http.StatusForbidden, fmt.Errorf("audit record %d belongs to another tenant", seq))
			return
		}
	}
	writeJSON(w, http.StatusOK, proof)
}

// --- per-tenant quota bookkeeping -----------------------------------
//
// tenantMu is a leaf lock: the helpers below never take s.mu or any
// job lock while holding it, so call sites may hold either.

// quotaAdmit checks and reserves one active-job slot for a tenant at
// submission. Auth off, or an identity with no registry row, admits
// freely — quotas bind only configured tenants.
func (s *Server) quotaAdmit(tenantID string) error {
	ten, ok := s.tenants.Get(tenantID)
	if !ok {
		return nil
	}
	s.tenantMu.Lock()
	defer s.tenantMu.Unlock()
	if ten.MaxJobs > 0 && s.tenantJobs[ten.ID] >= ten.MaxJobs {
		return fmt.Errorf("tenant %s has %d jobs queued or running (max %d)",
			ten.ID, s.tenantJobs[ten.ID], ten.MaxJobs)
	}
	if ten.MaxShardBytes > 0 && s.tenantBytes[ten.ID] >= ten.MaxShardBytes {
		return fmt.Errorf("tenant %s retains %d shard bytes (max %d); evict or expire jobs first",
			ten.ID, s.tenantBytes[ten.ID], ten.MaxShardBytes)
	}
	s.tenantJobs[ten.ID]++
	return nil
}

// quotaActivate counts a job (re)entering the queued/running phase —
// the unchecked path for restarts and requeues, which must never be
// refused by a quota the job was admitted under before the crash.
func (s *Server) quotaActivate(tenantID string) {
	if tenantID == "" {
		return
	}
	s.tenantMu.Lock()
	s.tenantJobs[tenantID]++
	s.tenantMu.Unlock()
}

// quotaDeactivate releases the active-job slot at a terminal
// transition (or an admit that could not enqueue).
func (s *Server) quotaDeactivate(tenantID string) {
	if tenantID == "" {
		return
	}
	s.tenantMu.Lock()
	if s.tenantJobs[tenantID] > 0 {
		s.tenantJobs[tenantID]--
	}
	s.tenantMu.Unlock()
}

// quotaRetain counts a completed job's shard bytes against its tenant
// (job done, restored, or adopted into the table).
func (s *Server) quotaRetain(tenantID string, bytes int64) {
	if tenantID == "" || bytes <= 0 {
		return
	}
	s.tenantMu.Lock()
	s.tenantBytes[tenantID] += bytes
	s.tenantMu.Unlock()
}

// quotaRelease returns shard bytes when a completed job leaves the
// table (eviction, or release to the ring owner).
func (s *Server) quotaRelease(tenantID string, bytes int64) {
	if tenantID == "" || bytes <= 0 {
		return
	}
	s.tenantMu.Lock()
	s.tenantBytes[tenantID] -= bytes
	if s.tenantBytes[tenantID] < 0 {
		s.tenantBytes[tenantID] = 0
	}
	s.tenantMu.Unlock()
}

// tenantRetained reports a tenant's current retained shard bytes.
func (s *Server) tenantRetained(tenantID string) int64 {
	s.tenantMu.Lock()
	defer s.tenantMu.Unlock()
	return s.tenantBytes[tenantID]
}

// quotaOverage returns, for each byte-capped tenant, its retained bytes
// minus its cap (negative while under it) — retention's byte-cap input.
// It is empty when no tenant has a cap, and then quota pressure never
// triggers eviction.
func (s *Server) quotaOverage() map[string]int64 {
	if s.tenants == nil {
		return nil
	}
	over := make(map[string]int64)
	for _, t := range s.tenants.Tenants() {
		if t.MaxShardBytes > 0 {
			over[t.ID] = s.tenantRetained(t.ID) - t.MaxShardBytes
		}
	}
	return over
}

// manifestStoredBytes is the stored size of a manifest's native shards,
// the unit of the retained-byte quota. It counts no frame sidecar, so
// it is less than what the job keeps on disk (the native shards were
// 0.50–0.71 of that at the last measurement); ROADMAP direction 16,
// storing each record once, would make the two equal.
func manifestStoredBytes(m *shard.Manifest) int64 {
	if m == nil {
		return 0
	}
	var n int64
	for _, info := range m.Shards {
		n += info.StoredBytes
	}
	return n
}
