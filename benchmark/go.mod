module gllm/benchmark

go 1.22

require gllm v0.0.0

replace gllm => ../
