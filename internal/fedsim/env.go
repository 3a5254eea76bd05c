package fedsim

import (
	"fmt"
	"math/rand"

	"flint/internal/availability"
	"flint/internal/data"
	"flint/internal/device"
	"flint/internal/network"
)

// Environment carries the measured real-world inputs of §3.4: the proxy
// dataset (via ShardProvider), the device availability trace, the on-device
// benchmark time distribution, and the network bandwidth model.
type Environment struct {
	Shards    ShardProvider
	Trace     *availability.Trace
	Times     *device.TimeDistribution
	Bandwidth network.BandwidthModel
	// EvalSet is the held-out offline evaluation dataset.
	EvalSet *data.Dataset
	// UpdateBytes is the one-way transfer size M; normally the model's
	// TransferBytes.
	UpdateBytes int
}

// Validate reports missing inputs.
func (e *Environment) Validate() error {
	if e.Shards == nil {
		return fmt.Errorf("fedsim: environment needs a shard provider")
	}
	if e.Trace == nil || e.Trace.NumClients() == 0 {
		return fmt.Errorf("fedsim: environment needs a non-empty availability trace")
	}
	if e.Times == nil {
		return fmt.Errorf("fedsim: environment needs a device time distribution")
	}
	if err := e.Bandwidth.Validate(); err != nil {
		return err
	}
	if e.UpdateBytes <= 0 {
		return fmt.Errorf("fedsim: environment needs UpdateBytes > 0")
	}
	return nil
}

// windowCursor streams availability windows in absolute virtual time,
// repeating the trace with its horizon as the period — §4.1 queries two
// weeks "since usage tends to exhibit weekly periodicity", and long jobs
// replay that periodic trace.
type windowCursor struct {
	trace  *availability.Trace
	idx    int
	offset float64
	period float64
}

func newWindowCursor(t *availability.Trace) *windowCursor {
	return &windowCursor{trace: t, period: t.Horizon()}
}

// next returns the next window in absolute time order.
func (c *windowCursor) next() (availability.Window, bool) {
	ws := c.trace.Windows()
	if len(ws) == 0 || c.period <= 0 {
		return availability.Window{}, false
	}
	if c.idx >= len(ws) {
		c.idx = 0
		c.offset += c.period
	}
	w := ws[c.idx]
	c.idx++
	w.Start += c.offset
	w.End += c.offset
	return w, true
}

// taskDuration computes the paper's duration model:
// taskDuration(k) = t·E·|Dk| + 2M/N.
func taskDuration(perExampleSec float64, epochs, shardSize, updateBytes int, bw network.BandwidthModel, rng *rand.Rand) float64 {
	compute := perExampleSec * float64(epochs) * float64(shardSize)
	net := bw.TransferSeconds(2*updateBytes, rng)
	return compute + net
}

// taskRNG derives the deterministic per-task randomness stream: task
// durations, failures, and local shuffling depend only on (seed, taskSeq),
// not on which executor runs the task or when it finishes.
func taskRNG(seed int64, taskSeq uint64) *rand.Rand {
	z := uint64(seed) ^ (0x9E3779B97F4A7C15 * (taskSeq + 1))
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return rand.New(rand.NewSource(int64(z)))
}
