//===- support/Diag.cpp - Diagnostics and fatal errors -------------------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//

#include "support/Diag.h"
#include "support/OStream.h"

#include <cerrno>
#include <cstdlib>

using namespace omm;

static const char *kindLabel(DiagKind Kind) {
  switch (Kind) {
  case DiagKind::Note:
    return "note";
  case DiagKind::Warning:
    return "warning";
  case DiagKind::Error:
    return "error";
  }
  return "unknown";
}

void DiagSink::add(DiagKind Kind, std::string Message) {
  if (EchoToStderr) {
    errs() << kindLabel(Kind) << ": " << Message << '\n';
    errs().flush();
  }
  Diags.push_back(Diag{Kind, std::move(Message)});
}

unsigned DiagSink::errorCount() const {
  unsigned Count = 0;
  for (const Diag &D : Diags)
    if (D.Kind == DiagKind::Error)
      ++Count;
  return Count;
}

unsigned DiagSink::warningCount() const {
  unsigned Count = 0;
  for (const Diag &D : Diags)
    if (D.Kind == DiagKind::Warning)
      ++Count;
  return Count;
}

bool DiagSink::containsMessage(std::string_view Needle) const {
  for (const Diag &D : Diags)
    if (D.Message.find(Needle) != std::string::npos)
      return true;
  return false;
}

void omm::reportFatalError(std::string_view Message) {
  errs() << "fatal error: " << Message << '\n';
  errs().flush();
  std::abort();
}

uint32_t omm::parseCountArg(int Argc, char **Argv, int Index,
                            uint32_t Default, const char *Usage) {
  if (Index >= Argc)
    return Default;
  const char *Text = Argv[Index];
  char *End = nullptr;
  errno = 0;
  unsigned long long Value = std::strtoull(Text, &End, 10);
  if (*Text < '0' || *Text > '9' || *End != '\0' || errno == ERANGE ||
      Value == 0 || Value > UINT32_MAX) {
    errs() << "error: '" << Text << "' is not a count in [1, 2^32)\n"
           << "usage: " << Usage << '\n';
    errs().flush();
    std::exit(2);
  }
  return static_cast<uint32_t>(Value);
}
