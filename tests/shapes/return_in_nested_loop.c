/* A `return` inside an inner loop leaves both loops and the function. */
volatile int n; int x; int r;
void g(void) { int i; int j; i = 0; r = 0;
  while (i < 4) {
    j = 0;
    while (j < 5) { if (j == n) { r = 1; return; } j = j + 1; }
    i = i + 1;
  }
  r = 2; }
void main(void) { __astree_input_int(n, 0, 20); g(); x = 100 / (r - 1); }
