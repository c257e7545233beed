package pipeline

import (
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock advances a fixed step per call.
type fakeClock struct {
	mu   sync.Mutex
	now  time.Time
	step time.Duration
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.now = f.now.Add(f.step)
	return f.now
}

func TestTimeRecordsDuration(t *testing.T) {
	c := NewCollector()
	fc := &fakeClock{step: 10 * time.Millisecond}
	c.SetClock(fc.Now)
	err := c.Time("normalize", "compute", 1024, 10, func() error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	stats := c.ByStage()
	if len(stats) != 1 || stats[0].Stage != "normalize" {
		t.Fatalf("stats=%+v", stats)
	}
	if stats[0].Total != 10*time.Millisecond {
		t.Fatalf("total=%v", stats[0].Total)
	}
	if stats[0].Bytes != 1024 || stats[0].Records != 10 || stats[0].Calls != 1 {
		t.Fatalf("stats=%+v", stats[0])
	}
}

func TestTimePropagatesError(t *testing.T) {
	c := NewCollector()
	sentinel := errors.New("boom")
	if err := c.Time("s", "c", 0, 0, func() error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("err=%v", err)
	}
	// Sample still recorded despite the error.
	if len(c.ByStage()) != 1 {
		t.Fatal("failed op not recorded")
	}
}

func TestThroughput(t *testing.T) {
	s := StageStats{Total: time.Second, Bytes: 2 * 1024 * 1024, Records: 100}
	if got := s.Throughput(); got != 2*1024*1024 {
		t.Fatalf("throughput=%v", got)
	}
	if got := s.RecordsPerSecond(); got != 100 {
		t.Fatalf("rps=%v", got)
	}
	zero := StageStats{}
	if zero.Throughput() != 0 || zero.RecordsPerSecond() != 0 {
		t.Fatal("zero-time stats must be 0")
	}
}

func TestByStageAggregation(t *testing.T) {
	c := NewCollector()
	c.Record(Sample{Stage: "b", Duration: time.Millisecond, Records: 1})
	c.Record(Sample{Stage: "a", Duration: time.Millisecond, Records: 2})
	c.Record(Sample{Stage: "b", Duration: time.Millisecond, Records: 3})
	stats := c.ByStage()
	if len(stats) != 2 || stats[0].Stage != "a" || stats[1].Stage != "b" {
		t.Fatalf("stats=%+v", stats)
	}
	if stats[1].Calls != 2 || stats[1].Records != 4 {
		t.Fatalf("b stats=%+v", stats[1])
	}
}

func TestCategoryShare(t *testing.T) {
	c := NewCollector()
	c.Record(Sample{Stage: "extract", Category: "curation", Duration: 700 * time.Millisecond})
	c.Record(Sample{Stage: "train", Category: "compute", Duration: 300 * time.Millisecond})
	shares := c.CategoryShare()
	if math.Abs(shares["curation"]-0.7) > 1e-9 {
		t.Fatalf("curation=%v", shares["curation"])
	}
	if math.Abs(shares["compute"]-0.3) > 1e-9 {
		t.Fatalf("compute=%v", shares["compute"])
	}
}

func TestCategoryShareEmpty(t *testing.T) {
	if shares := NewCollector().CategoryShare(); len(shares) != 0 {
		t.Fatalf("shares=%v", shares)
	}
}

func TestTotalDuration(t *testing.T) {
	c := NewCollector()
	c.Record(Sample{Duration: time.Second})
	c.Record(Sample{Duration: 2 * time.Second})
	if c.TotalDuration() != 3*time.Second {
		t.Fatalf("total=%v", c.TotalDuration())
	}
}

func TestReportRendering(t *testing.T) {
	c := NewCollector()
	c.Record(Sample{Stage: "shard", Category: "io", Duration: time.Second, Bytes: 1 << 20, Records: 50})
	r := c.Report()
	if !strings.Contains(r, "shard") || !strings.Contains(r, "category io") {
		t.Fatalf("report:\n%s", r)
	}
}

func TestConcurrentRecording(t *testing.T) {
	c := NewCollector()
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = c.Time("parallel", "compute", 1, 1, func() error { return nil })
		}()
	}
	wg.Wait()
	stats := c.ByStage()
	if len(stats) != 1 || stats[0].Calls != 64 {
		t.Fatalf("stats=%+v", stats)
	}
}
