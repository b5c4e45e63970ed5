package ocssd

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
	"repro/internal/vclock"
)

// padRig first writes two stripes of stale bytes to a chunk and resets
// it, so the backend file and the recycled stripe-buffer slot both hold
// old data wherever a pad could leak it; then it programs one full
// stripe and buffers prefix sectors of the next.
func padRig(t *testing.T, d *Device, id ChunkID, prefix int) {
	t.Helper()
	geo := d.Geometry()
	if _, _, err := d.Append(0, id, sectors(geo, 2*geo.WSOpt, 0xEE)); err != nil {
		t.Fatalf("append stale: %v", err)
	}
	if _, err := d.Reset(0, id); err != nil {
		t.Fatalf("reset: %v", err)
	}
	if _, _, err := d.Append(0, id, fillSectors(geo, id, 0, geo.WSOpt)); err != nil {
		t.Fatalf("append stripe: %v", err)
	}
	if _, _, err := d.Append(0, id, fillSectors(geo, id, geo.WSOpt, prefix)); err != nil {
		t.Fatalf("append prefix: %v", err)
	}
}

// checkPadded checks a padRig chunk after its second stripe completed:
// both stripes' data intact, the pad tail zero.
func checkPadded(t *testing.T, d *Device, id ChunkID, prefix int) {
	t.Helper()
	geo := d.Geometry()
	info, err := d.Chunk(id)
	if err != nil {
		t.Fatal(err)
	}
	if info.WP != 2*geo.WSOpt {
		t.Fatalf("wp = %d, want %d", info.WP, 2*geo.WSOpt)
	}
	for s := 0; s < geo.WSOpt+prefix; s++ {
		checkSector(t, d, id.PPAOf(s), sectorFill(id, s))
	}
	for s := geo.WSOpt + prefix; s < 2*geo.WSOpt; s++ {
		checkSector(t, d, id.PPAOf(s), 0)
	}
}

// reopen closes a file-backed device, restores it with OpenDevice and
// checks the chunk report survived unchanged.
func reopen(t *testing.T, d *Device, opts Options) *Device {
	t.Helper()
	before := d.Report()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenDevice(d.Geometry(), opts)
	if err != nil {
		t.Fatalf("OpenDevice: %v", err)
	}
	t.Cleanup(func() { d2.Close() })
	after := d2.Report()
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("chunk %v restored as %+v, want %+v", before[i].ID, after[i], before[i])
		}
	}
	return d2
}

// padModes are the backends the pad paths must agree on.
func padModes(t *testing.T, plp bool) map[string]Options {
	return map[string]Options{
		"memory": {Seed: 5, PowerLossProtected: plp},
		"file":   {Seed: 5, PowerLossProtected: plp, BackendPath: filepath.Join(t.TempDir(), "dev.img")},
	}
}

func TestPadZeroTail(t *testing.T) {
	geo := smallGeo()
	id := ChunkID{1, 0, 2}
	for _, prefix := range []int{geo.WSMin, geo.WSOpt - geo.WSMin} {
		for name, opts := range padModes(t, false) {
			d := newDev(t, geo, opts)
			padRig(t, d, id, prefix)
			if _, err := d.Pad(0, id); err != nil {
				t.Fatalf("%s prefix %d: Pad: %v", name, prefix, err)
			}
			if got, want := d.Stats().PadSectors, int64(geo.WSOpt-prefix); got != want {
				t.Fatalf("%s prefix %d: pad sectors %d, want %d", name, prefix, got, want)
			}
			checkPadded(t, d, id, prefix)
			if opts.BackendPath != "" {
				checkPadded(t, reopen(t, d, opts), id, prefix)
			}
		}
	}
}

func TestCrashPLPZeroTail(t *testing.T) {
	geo := smallGeo()
	id := ChunkID{0, 1, 3}
	prefix := 2 * geo.WSMin
	for name, opts := range padModes(t, true) {
		d := newDev(t, geo, opts)
		padRig(t, d, id, prefix)
		d.Crash()
		if got, want := d.Stats().PadSectors, int64(geo.WSOpt-prefix); got != want {
			t.Fatalf("%s: pad sectors %d, want %d", name, got, want)
		}
		checkPadded(t, d, id, prefix)
		if opts.BackendPath != "" {
			checkPadded(t, reopen(t, d, opts), id, prefix)
		}
	}
}

// TestPowerCutOnPad cuts power on the stripe program of a Pad. Without
// PLP the torn count (drawn from the injector's seed) may reach past the
// buffered prefix: the backend must then hold the prefix and zeros, never
// stale stripe-buffer bytes, and the restored write pointer excludes the
// stripe. With PLP the padded stripe completes and survives.
func TestPowerCutOnPad(t *testing.T) {
	geo := smallGeo()
	sz := geo.Chip.SectorSize
	id := ChunkID{1, 1, 1}
	prefix := geo.WSMin
	pastPrefix := 0
	for seed := int64(1); seed <= 8; seed++ {
		for _, plp := range []bool{false, true} {
			path := filepath.Join(t.TempDir(), "dev.img")
			inj := fault.New(fault.Config{Seed: seed, TornWrites: true})
			opts := Options{Seed: 5, PowerLossProtected: plp, BackendPath: path}
			faulty := opts
			faulty.Faults = inj
			d := newDev(t, geo, faulty)
			padRig(t, d, id, prefix)
			inj.PowerCut(1)
			if _, err := d.Pad(0, id); !errors.Is(err, fault.ErrPowerCut) {
				t.Fatalf("seed %d: Pad: %v, want power cut", seed, err)
			}
			d.Close()

			d2, err := OpenDevice(geo, opts)
			if err != nil {
				t.Fatalf("seed %d: OpenDevice: %v", seed, err)
			}
			if plp {
				checkPadded(t, d2, id, prefix)
				d2.Close()
				continue
			}
			info, _ := d2.Chunk(id)
			if info.WP != geo.WSOpt {
				t.Fatalf("seed %d: restored wp %d, want %d", seed, info.WP, geo.WSOpt)
			}
			d2.Close()

			// The injector draws the torn count once, at the cut.
			torn := rand.New(rand.NewSource(seed)).Intn(geo.WSOpt)
			if torn > prefix {
				pastPrefix++
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			base := (int(d.flatChunk(id))*geo.SectorsPerChunk() + geo.WSOpt) * sz
			for s := 0; s < geo.WSOpt; s++ {
				// The torn write covers the first torn sectors: the
				// prefix, then zeros; past it the pre-reset bytes remain.
				want := byte(0)
				switch {
				case s < min(torn, prefix):
					want = sectorFill(id, geo.WSOpt+s)
				case s >= torn:
					want = 0xEE
				}
				for i := 0; i < sz; i++ {
					if got := raw[base+s*sz+i]; got != want {
						t.Fatalf("seed %d torn %d: stripe sector %d byte %d = %#x, want %#x", seed, torn, s, i, got, want)
					}
				}
			}
		}
	}
	if pastPrefix == 0 {
		t.Fatal("no seed tore past the buffered prefix")
	}
}

// TestPadVirtualCompletionPinned pins the virtual completion of a Pad:
// the pad tail is never copied, yet the cache and the channel are still
// charged for the whole stripe, so the instants match the device that
// copied the zeros.
func TestPadVirtualCompletionPinned(t *testing.T) {
	geo := smallGeo()
	noCache := geo
	noCache.CacheMB = 0
	id := ChunkID{0, 0, 1}
	for _, tc := range []struct {
		name string
		geo  Geometry
		want vclock.Time
	}{
		{"cache", geo, 5149479},
		{"no-cache", noCache, 5149479},
	} {
		d := newDev(t, tc.geo, Options{Seed: 1})
		if _, _, err := d.Append(0, id, fillSectors(tc.geo, id, 0, tc.geo.WSMin)); err != nil {
			t.Fatal(err)
		}
		end, err := d.Pad(vclock.Time(1000), id)
		if err != nil {
			t.Fatal(err)
		}
		if end != tc.want {
			t.Errorf("%s: Pad completes at %d, want %d", tc.name, end, tc.want)
		}
	}
}
