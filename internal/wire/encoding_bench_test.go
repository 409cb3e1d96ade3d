package wire

import (
	"fmt"
	"testing"
)

// Micro-benchmarks for the CPU-vs-bandwidth tradeoff of the result
// encodings: ns/op is what the server pays per frame, the wire_bytes
// metric is what the WAN is spared. Run with
//
//	go test -bench BenchmarkEncodeResult -benchmem ./internal/wire/
//
// to see both sides.

func benchResult() *Response { return nodeShapedResult(1000) }

// v2Results are the frames the v2 benchmarks encode and decode: 1,000
// node-shaped rows, whose columns all stay dictionaries and raw floats,
// and a Query-sized frame, whose names are front-coded and weights
// decimal.
func v2Results() []struct {
	name string
	resp *Response
} {
	return []struct {
		name string
		resp *Response
	}{{"node", benchResult()}, {"query", queryShapedResult(3280)}}
}

// BenchmarkEncodeResultV1 also encodes a Query-sized result: 30,000 rows
// make a frame past the pool's buffer cap, which is sized once and
// allocated once.
func BenchmarkEncodeResultV1(b *testing.B) {
	for _, rows := range []int{1000, 30000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			resp := nodeShapedResult(rows)
			var body []byte
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				body = EncodeResponse(resp)
				putFrame(body)
			}
			b.ReportMetric(float64(len(body)), "wire_bytes")
		})
	}
}

// BenchmarkEncodeResultV2 reports the frame's bytes before and after
// deflate at the default level.
func BenchmarkEncodeResultV2(b *testing.B) {
	for _, r := range v2Results() {
		b.Run(r.name, func(b *testing.B) {
			var body []byte
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				body = EncodeResponseV2(r.resp)
			}
			b.ReportMetric(float64(len(body)), "wire_bytes")
			b.ReportMetric(float64(len(CompressBody(body, 0))), "deflated_bytes")
		})
	}
}

func BenchmarkEncodeResultV2Compressed(b *testing.B) {
	resp := benchResult()
	var body []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body = CompressBody(EncodeResponseV2(resp), 0)
	}
	b.ReportMetric(float64(len(body)), "wire_bytes")
}

func BenchmarkDecodeResultV1(b *testing.B) {
	body := EncodeResponse(benchResult())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeResponse(body); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeResultV2(b *testing.B) {
	for _, r := range v2Results() {
		b.Run(r.name, func(b *testing.B) {
			body := EncodeResponseV2(r.resp)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := DecodeResponse(body); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(body)), "wire_bytes")
		})
	}
}

func BenchmarkDecodeResultV2Compressed(b *testing.B) {
	body := CompressBody(EncodeResponseV2(benchResult()), 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inflated, err := MaybeDecompress(body)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := DecodeResponse(inflated); err != nil {
			b.Fatal(err)
		}
	}
}
