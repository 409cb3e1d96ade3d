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

func BenchmarkEncodeResultV2(b *testing.B) {
	resp := benchResult()
	var body []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body = EncodeResponseV2(resp)
	}
	b.ReportMetric(float64(len(body)), "wire_bytes")
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
	body := EncodeResponseV2(benchResult())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeResponse(body); err != nil {
			b.Fatal(err)
		}
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
