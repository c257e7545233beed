package domain

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/loader"
	"repro/internal/shard"
	"repro/internal/wire"
)

// runPipeline runs p's job for spec over sink and returns its product's
// manifest and key.
func runPipeline(t *testing.T, p Plugin, spec wire.Spec, sink shard.Sink, seal func([]byte)) (*shard.Manifest, []byte) {
	t.Helper()
	run, err := p.Build(spec, sink)
	if err != nil {
		t.Fatal(err)
	}
	seal(run.Key)
	if _, err := run.Pipeline.Run(run.Dataset); err != nil {
		t.Fatal(err)
	}
	m, err := p.Manifest(run.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	return m, run.Key
}

// TestSidecarSinkMatchesLibrary: for every plugin, a job written
// through a SidecarSink stores exactly one sidecar per shard and no
// native byte, each sidecar's plaintext is byte for byte what
// BuildShardSidecars builds from the library pipeline's native shards,
// and StoredManifest keeps each shard's name, records and raw bytes
// while describing the stored sidecar: its stored size, and the SHA-256
// of its plaintext image.
func TestSidecarSinkMatchesLibrary(t *testing.T) {
	for _, p := range Plugins() {
		t.Run(strings.ReplaceAll(string(p.Domain), "/", "_"), func(t *testing.T) {
			spec := goldenSpec(p.Domain, 1)
			lib := shard.NewMemSink()
			libM, libKey := runPipeline(t, p, spec, lib, func([]byte) {})
			if _, err := BuildShardSidecars(p, lib, libM, libKey); err != nil {
				t.Fatal(err)
			}

			store := shard.NewMemSink()
			sink := &SidecarSink{Plugin: p, Store: store}
			m, key := runPipeline(t, p, spec, sink, func(key []byte) { sink.Key = key })
			stored, err := sink.StoredManifest(m)
			if err != nil {
				t.Fatal(err)
			}
			var want []string
			for _, info := range stored.Shards {
				want = append(want, p.StoredName(SidecarName(info.Name), key != nil))
			}
			if got := store.Names(); strings.Join(got, " ") != strings.Join(want, " ") {
				t.Fatalf("store holds %v, want only the sidecars %v", got, want)
			}
			if len(stored.Shards) != len(libM.Shards) {
				t.Fatalf("%d shards, library %d", len(stored.Shards), len(libM.Shards))
			}
			for i, info := range stored.Shards {
				li := libM.Shards[i]
				if info.Name != li.Name || info.Records != li.Records || info.RawBytes != li.RawBytes {
					t.Fatalf("shard %d: %+v, library %+v", i, info, li)
				}
				got, err := shard.ReadObject(p.Opener(store, key), SidecarName(info.Name))
				if err != nil {
					t.Fatal(err)
				}
				wantImage, err := shard.ReadObject(p.Opener(lib, libKey), SidecarName(info.Name))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, wantImage) {
					t.Fatalf("%s: sidecar differs from the library's (%d vs %d bytes)", info.Name, len(got), len(wantImage))
				}
				sum := sha256.Sum256(got)
				if info.SHA256 != hex.EncodeToString(sum[:]) {
					t.Fatalf("%s: manifest sha256 %s is not the sidecar's", info.Name, info.SHA256)
				}
				if n := store.Size(p.StoredName(SidecarName(info.Name), key != nil)); info.StoredBytes != n {
					t.Fatalf("%s: manifest stored_bytes %d, the store holds %d", info.Name, info.StoredBytes, n)
				}
			}

			// A manifest that does not describe what the sink stored is
			// refused.
			for name, bad := range map[string]func(*shard.Manifest){
				"other bytes":   func(m *shard.Manifest) { m.Shards[0].SHA256 = strings.Repeat("0", 64) },
				"other records": func(m *shard.Manifest) { m.Shards[0].Records++ },
				"no sidecar":    func(m *shard.Manifest) { m.Shards[0].Name += "x" },
			} {
				tampered := &shard.Manifest{Prefix: m.Prefix, Shards: append([]shard.Info(nil), m.Shards...)}
				bad(tampered)
				if _, err := sink.StoredManifest(tampered); err == nil {
					t.Errorf("StoredManifest accepted a manifest with %s", name)
				}
			}
		})
	}
}

// TestSidecarSinkConcurrentWriters: shard writers on several goroutines
// (shard.ParallelWrite) share one SidecarSink, and every shard they
// wrote comes out as its sidecar in StoredManifest.
func TestSidecarSinkConcurrentWriters(t *testing.T) {
	p, err := Lookup(core.Climate)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([][]byte, 400)
	for i := range recs {
		recs[i] = (&loader.Sample{Features: []float32{float32(i), 1, 2, 3}, Label: int32(i % 4)}).Encode()
	}
	store := shard.NewMemSink()
	sink := &SidecarSink{Plugin: p, Store: store}
	m, err := shard.ParallelWrite(sink, shard.Options{Prefix: "par", TargetBytes: 512}, 4, recs)
	if err != nil {
		t.Fatal(err)
	}
	stored, err := sink.StoredManifest(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(stored.Shards) < 8 || stored.TotalRecords() != len(recs) || len(store.Names()) != len(stored.Shards) {
		t.Fatalf("%d shards holding %d records, %d stored objects; want at least 8 shards, %d records, one object each",
			len(stored.Shards), stored.TotalRecords(), len(store.Names()), len(recs))
	}
}
