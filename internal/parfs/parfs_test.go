package parfs

import (
	"bytes"
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/shard"
)

// fastFS returns an FS whose sleeps are no-ops but still accounted,
// making timing-related tests deterministic.
func fastFS(t *testing.T, cfg Config) *FS {
	t.Helper()
	fs, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fs.SetSleep(func(time.Duration) {})
	return fs
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{OSTs: 0, StripeSize: 1, BandwidthMBps: 1},
		{OSTs: 1, StripeSize: 0, BandwidthMBps: 1},
		{OSTs: 1, StripeSize: 1, BandwidthMBps: 0},
		{OSTs: 1, StripeSize: 1, BandwidthMBps: 1, LatencyMicros: -1},
	}
	for i, c := range bad {
		if _, err := New(c); err == nil {
			t.Fatalf("config %d should fail: %+v", i, c)
		}
	}
	if _, err := New(DefaultConfig()); err != nil {
		t.Fatal(err)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	fs := fastFS(t, Config{OSTs: 4, StripeSize: 16, BandwidthMBps: 1000})
	data := make([]byte, 1000)
	for i := range data {
		data[i] = byte(i)
	}
	if err := fs.WriteFile("f", data); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("roundtrip mismatch")
	}
}

func TestReadMissing(t *testing.T) {
	fs := fastFS(t, DefaultConfig())
	if _, err := fs.ReadFile("nope"); err == nil {
		t.Fatal("want not-found error")
	}
}

func TestOverwrite(t *testing.T) {
	fs := fastFS(t, DefaultConfig())
	if err := fs.WriteFile("f", []byte("old-longer-content")); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("f", []byte("new")); err != nil {
		t.Fatal(err)
	}
	got, _ := fs.ReadFile("f")
	if string(got) != "new" {
		t.Fatalf("got %q", got)
	}
}

func TestEmptyFileAndName(t *testing.T) {
	fs := fastFS(t, DefaultConfig())
	if err := fs.WriteFile("", nil); err == nil {
		t.Fatal("want name error")
	}
	if err := fs.WriteFile("empty", nil); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("empty")
	if err != nil || len(got) != 0 {
		t.Fatalf("got=%v err=%v", got, err)
	}
}

func TestExistsAndList(t *testing.T) {
	fs := fastFS(t, DefaultConfig())
	_ = fs.WriteFile("b", []byte("1"))
	_ = fs.WriteFile("a", []byte("2"))
	if !fs.Exists("a") || fs.Exists("c") {
		t.Fatal("exists wrong")
	}
	l := fs.List()
	if len(l) != 2 || l[0] != "a" || l[1] != "b" {
		t.Fatalf("list=%v", l)
	}
}

func TestStatsAccounting(t *testing.T) {
	fs := fastFS(t, Config{OSTs: 2, StripeSize: 10, BandwidthMBps: 1, LatencyMicros: 100})
	if err := fs.WriteFile("f", make([]byte, 35)); err != nil { // 4 chunks
		t.Fatal(err)
	}
	s := fs.Stats()
	if s.Ops != 4 {
		t.Fatalf("ops=%d", s.Ops)
	}
	if s.Bytes != 35 {
		t.Fatalf("bytes=%d", s.Bytes)
	}
	if s.BusyTime <= 0 || s.MaxOSTBusy <= 0 || s.MaxOSTBusy > s.BusyTime {
		t.Fatalf("busy=%v max=%v", s.BusyTime, s.MaxOSTBusy)
	}
}

func TestStripingSpreadsAcrossOSTs(t *testing.T) {
	fs := fastFS(t, Config{OSTs: 4, StripeSize: 10, BandwidthMBps: 1000})
	if err := fs.WriteFile("f", make([]byte, 40)); err != nil {
		t.Fatal(err)
	}
	busyOSTs := 0
	for _, o := range fs.osts {
		if o.ops > 0 {
			busyOSTs++
		}
	}
	if busyOSTs != 4 {
		t.Fatalf("striping touched %d/4 OSTs", busyOSTs)
	}
}

func TestChunkCostScalesWithSize(t *testing.T) {
	fs := fastFS(t, Config{OSTs: 1, StripeSize: 1 << 20, BandwidthMBps: 100, LatencyMicros: 10})
	small := fs.chunkCost(1024)
	big := fs.chunkCost(1 << 20)
	if big <= small {
		t.Fatalf("cost not monotone: %v vs %v", small, big)
	}
}

func TestConcurrentWritersSafe(t *testing.T) {
	fs := fastFS(t, Config{OSTs: 4, StripeSize: 64, BandwidthMBps: 10000})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := string(rune('a' + i))
			data := bytes.Repeat([]byte{byte(i)}, 500)
			if err := fs.WriteFile(name, data); err != nil {
				t.Error(err)
				return
			}
			got, err := fs.ReadFile(name)
			if err != nil || !bytes.Equal(got, data) {
				t.Errorf("file %s corrupted", name)
			}
		}(i)
	}
	wg.Wait()
	if len(fs.List()) != 16 {
		t.Fatalf("files=%d", len(fs.List()))
	}
}

func TestParallelWritersOverlapRealTime(t *testing.T) {
	// With real sleeps: 4 writers to a 4-OST FS should take well under
	// 4x one writer's time (overlap across OSTs).
	cfg := Config{OSTs: 4, StripeSize: 1 << 16, BandwidthMBps: 50, LatencyMicros: 0}
	mk := func() *FS {
		fs, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return fs
	}
	payload := make([]byte, 1<<20) // ~20ms serial at 50 MiB/s

	serial := mk()
	start := time.Now()
	for i := 0; i < 4; i++ {
		if err := serial.WriteFile(string(rune('a'+i)), payload); err != nil {
			t.Fatal(err)
		}
	}
	serialTime := time.Since(start)

	par := mk()
	start = time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := par.WriteFile(string(rune('a'+i)), payload); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	parTime := time.Since(start)

	if parTime >= serialTime {
		t.Fatalf("no overlap: parallel %v vs serial %v", parTime, serialTime)
	}
}

func TestShardSinkAdapter(t *testing.T) {
	fs := fastFS(t, DefaultConfig())
	w, err := shard.NewWriter(fs, shard.Options{Prefix: "train", TargetBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := w.Write(bytes.Repeat([]byte{byte(i)}, 50)); err != nil {
			t.Fatal(err)
		}
	}
	m, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Shards) < 2 {
		t.Fatalf("shards=%d", len(m.Shards))
	}
	n := 0
	if err := shard.ReadAll(fs, m, func(string, []byte) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 20 {
		t.Fatalf("read %d records", n)
	}
}

func TestCreateDuplicateAndEmpty(t *testing.T) {
	fs := fastFS(t, DefaultConfig())
	w, err := fs.Create("s")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create("s"); err == nil {
		t.Fatal("want duplicate error")
	}
	if _, err := fs.Create(""); err == nil {
		t.Fatal("want empty-name error")
	}
	// Write after close rejected.
	if _, err := w.Write([]byte("y")); err == nil {
		t.Fatal("want write-after-close error")
	}
	// Double close is a no-op.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenAdapter(t *testing.T) {
	fs := fastFS(t, DefaultConfig())
	if err := fs.WriteFile("x", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	rc, err := fs.Open("x")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(rc)
	if err != nil || string(got) != "hello" {
		t.Fatalf("got=%q err=%v", got, err)
	}
	if _, err := fs.Open("missing"); err == nil {
		t.Fatal("want not-found error")
	}
}

func BenchmarkParfsStriping(b *testing.B) {
	payload := make([]byte, 4<<20)
	for _, osts := range []int{1, 2, 4, 8} {
		b.Run(string(rune('0'+osts))+"osts", func(b *testing.B) {
			fs, err := New(Config{OSTs: osts, StripeSize: 1 << 20, BandwidthMBps: 8192, LatencyMicros: 20})
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := fs.WriteFile("f", payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
