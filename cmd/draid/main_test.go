package main

import (
	"math"
	"strings"
	"testing"
)

// TestResolveCacheBudget pins the flag→budget mapping: MiB become
// bytes, zero disables the cache, and any value the shift cannot carry
// — negative, or large enough to overflow int64 — is rejected with the
// flag named instead of becoming a nonsense budget.
func TestResolveCacheBudget(t *testing.T) {
	cases := []struct {
		name      string
		serveMB   int64
		want      int64
		wantError bool
	}{
		{name: "default", serveMB: 256, want: 256 << 20},
		{name: "serve set", serveMB: 64, want: 64 << 20},
		{name: "serve zero disables", serveMB: 0, want: 0},
		{name: "largest representable", serveMB: math.MaxInt64 >> 20, want: (math.MaxInt64 >> 20) << 20},
		{name: "negative serve", serveMB: -1, wantError: true},
		// 2^44 MiB shifts to exactly 2^64, which wraps to a zero budget.
		{name: "overflow to zero", serveMB: 1 << 44, wantError: true},
		{name: "overflow to negative", serveMB: 1 << 43, wantError: true},
		{name: "max int64", serveMB: math.MaxInt64, wantError: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := resolveCacheBudget(tc.serveMB)
			if tc.wantError {
				if err == nil {
					t.Fatalf("want error, got budget %d", got)
				}
				if !strings.Contains(err.Error(), "-serve-cache-mb") {
					t.Fatalf("error %q does not name -serve-cache-mb", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Fatalf("budget %d, want %d", got, tc.want)
			}
		})
	}
}
